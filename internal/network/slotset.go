package network

import (
	"math/bits"
	"slices"
)

// SlotSet is a set of slots — the handles callers record with their
// reservations — as a bitmap, 64 slots to a word. Walking it in index order
// yields its members ascending, so a caller that numbers its connections in
// ID order reads every union it forms back in ID order.
type SlotSet []uint64

// Has reports whether slot i is in the set.
func (s SlotSet) Has(i int32) bool {
	w := int(i >> 6)
	return w < len(s) && s[w]&(1<<(uint(i)&63)) != 0
}

// Add puts slot i in the set, growing it as needed.
func (s *SlotSet) Add(i int32) {
	w := int(i >> 6)
	for len(*s) <= w {
		*s = append(*s, 0)
	}
	(*s)[w] |= 1 << (uint(i) & 63)
}

// Remove takes slot i out of the set.
func (s SlotSet) Remove(i int32) {
	if w := int(i >> 6); w < len(s) {
		s[w] &^= 1 << (uint(i) & 63)
	}
}

// Reset empties the set and sizes it for the slots below n, keeping its
// array.
func (s *SlotSet) Reset(n int) {
	w := (n + 63) >> 6
	*s = slices.Grow((*s)[:0], w)[:w]
	clear(*s)
}

// Or adds t's members that fall within s's size.
func (s SlotSet) Or(t SlotSet) {
	t = t[:min(len(s), len(t))]
	s = s[:len(t)]
	for i, x := range t {
		s[i] |= x
	}
}

// AndNot takes t's members out of s.
func (s SlotSet) AndNot(t SlotSet) {
	t = t[:min(len(s), len(t))]
	s = s[:len(t)]
	for i, x := range t {
		s[i] &^= x
	}
}

// Count returns the number of members.
func (s SlotSet) Count() int {
	n := 0
	for _, x := range s {
		n += bits.OnesCount64(x)
	}
	return n
}

// AppendMembers appends the members to dst in ascending order.
func (s SlotSet) AppendMembers(dst []int32) []int32 {
	for w, x := range s {
		for x != 0 {
			dst = append(dst, int32(w<<6|bits.TrailingZeros64(x)))
			x &= x - 1
		}
	}
	return dst
}

// renumber moves every member i to to[i], in place. Renumbering keeps the
// members' order and moves none up (to[i] ≤ i), so a word is only ever
// written after it has been read.
func (s SlotSet) renumber(to []int32) {
	for w, x := range s {
		s[w] = 0
		for ; x != 0; x &= x - 1 {
			j := to[w<<6|bits.TrailingZeros64(x)]
			s[j>>6] |= 1 << (uint(j) & 63)
		}
	}
}
