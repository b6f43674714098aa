package shard

// NumShards returns the shard count.
func (c *Coordinator) NumShards() int { return len(c.shards) }

// CrossStats returns the 2PC counters (attempted, committed, aborted).
func (c *Coordinator) CrossStats() (attempts, committed, aborted int64) {
	return c.crossAttempts.Load(), c.crossCommitted.Load(), c.crossAborted.Load()
}
