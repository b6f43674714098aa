// Package p holds one export of each kind the test-only export check tells
// apart, and one settings struct for the unset-options check.
// TestNoTestOnlyExportsCanFail expects exactly Unused and TestedOnly to be
// flagged, TestNoUnsetOptionsCanFail exactly Options.TestSet and
// Options.Unset.
package p

// Unused has no caller at all.
func Unused() {}

// TestedOnly is called from p_test.go only.
func TestedOnly() int { return 1 }

// Shape is used by the command.
type Shape struct{}

// Area is never called by name; the command converts a Shape to an
// interface that has it.
func (Shape) Area() float64 { return 1 }

// String satisfies fmt.Stringer, which fmt looks for at run time.
func (Shape) String() string { return "shape" }

// ResetForTesting is a test seam by name.
func ResetForTesting() {}

// Options is the command's settings.
type Options struct {
	// Set is set by the command.
	Set int
	// TestSet is set by p_test.go only.
	TestSet int
	// Unset is set by nobody.
	Unset int
}
