package shard

// NumShards returns the shard count.
func (c *Coordinator) NumShards() int { return len(c.shards) }
