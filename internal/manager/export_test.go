package manager

// KernelCounts returns what the event kernels have done since m was built:
// levels the filling served as one round, candidates it served (in a round
// or from the growth heap), of which popped (from the heap), and connection
// IDs built for reports or AppendChained.
func (m *Manager) KernelCounts() (rounds, served, popped, ids int64) {
	c := m.work.counts
	return c.rounds, c.served, c.popped, c.ids
}
