package kcluster

import "sync/atomic"

// shape is what the cluster's replicas must agree on.
type shape struct {
	k         int
	canonical bool
	shards    int
}

// view is one immutable routing snapshot: the learned shape and the shard
// table. The registry publishes a new one on every change of membership or
// routability; a request loads it once, so everything it routes comes from
// one consistent state with no lock on the key path.
type view struct {
	shape
	table []shardView // index = cluster shard
}

// shardView is one shard's routable replicas.
type shardView struct {
	reps   []*Replica // reps[:up] are Up, the rest Draining
	up     int
	cursor atomic.Uint32 // round-robin over reps[:up]
}

// candidates returns the shard's replicas in the order one request should
// try them: the Up replicas rotated by the cursor — the primary, then the
// hedge / retry targets — and the draining ones last (routable as a last
// resort only). Empty when the shard has no routable replica. The result
// is read-only.
func (s *shardView) candidates() []*Replica {
	if s.up < 2 {
		return s.reps
	}
	start := int(s.cursor.Add(1) % uint32(s.up))
	out := make([]*Replica, 0, len(s.reps))
	out = append(out, s.reps[start:s.up]...)
	out = append(out, s.reps[:start]...)
	return append(out, s.reps[s.up:]...)
}
