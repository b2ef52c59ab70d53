package kcluster

import (
	"net/http"
	"testing"
	"time"
)

// tableRegistry is a registry that no probe loop runs against, so that
// only the test changes it (setState and rebuild, or ProbeNow): the
// replicas at addrs, all Up, dealt to the shards in equal runs.
func tableRegistry(shards int, addrs ...string) *Registry {
	g := &Registry{
		opts:   RegistryOptions{}.withDefaults(),
		client: &http.Client{Timeout: probeTimeout},
		shape:  shape{k: 17, shards: shards},
	}
	for i, addr := range addrs {
		g.replicas = append(g.replicas, &Replica{Addr: addr, state: StateUp, shard: i * shards / len(addrs), shardCount: shards})
	}
	g.initMetrics()
	g.rebuild()
	return g
}

func setState(rep *Replica, s State) {
	rep.mu.Lock()
	rep.state = s
	rep.mu.Unlock()
}

func TestViewDrainingSortsLast(t *testing.T) {
	g := tableRegistry(1, "r0", "r1", "r2")
	setState(g.replicas[1], StateDraining)
	g.rebuild()
	primaries := map[*Replica]int{}
	for i := 0; i < 200; i++ {
		cands := candidatesOf(g, 0)
		if len(cands) != 3 || cands[0] == cands[1] {
			t.Fatalf("candidates %v, want the three replicas once each", cands)
		}
		if got := cands[2]; got != g.replicas[1] {
			t.Fatalf("draining replica sorted at %v, want last", got.Addr)
		}
		primaries[cands[0]]++
	}
	if primaries[g.replicas[0]] != 100 || primaries[g.replicas[2]] != 100 {
		t.Fatalf("primaries %v, want the two Up replicas in turn", primaries)
	}
}

func TestViewEmptyShard(t *testing.T) {
	g := tableRegistry(1, "r0", "r1")
	if !g.Ready() {
		t.Fatal("two Up replicas, not ready")
	}
	setState(g.replicas[0], StateDown)
	setState(g.replicas[1], StateUnknown)
	g.rebuild()
	if got := candidatesOf(g, 0); len(got) != 0 {
		t.Fatalf("shard with no routable replica returned %v", got)
	}
	if g.Ready() {
		t.Fatal("ready with no routable replica")
	}
	if got := g.Rebalances(); got != 2 {
		t.Fatalf("%d rebalances counted over two rebuilds", got)
	}
}

func TestReplicaEWMA(t *testing.T) {
	rep := &Replica{Addr: "x"}
	rep.observe(10 * time.Millisecond)
	if got := rep.EWMALatencyMs(); got != 10 {
		t.Fatalf("first sample = %v, want 10", got)
	}
	rep.observe(20 * time.Millisecond)
	want := (1-ewmaAlpha)*10 + ewmaAlpha*20
	if got := rep.EWMALatencyMs(); got != want {
		t.Fatalf("ewma = %v, want %v", got, want)
	}
}

func TestClampAndValidate(t *testing.T) {
	if got := clampDuration(5, 10, 20); got != 10 {
		t.Fatalf("clamp below = %v", got)
	}
	if got := clampDuration(25, 10, 20); got != 20 {
		t.Fatalf("clamp above = %v", got)
	}
	if got := clampDuration(15, 10, 20); got != 15 {
		t.Fatalf("clamp inside = %v", got)
	}
	if err := validateShard(0, 2); err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][2]int{{-1, 2}, {2, 2}, {0, 0}} {
		if validateShard(bad[0], bad[1]) == nil {
			t.Errorf("validateShard(%d, %d) accepted", bad[0], bad[1])
		}
	}
	for s, want := range map[State]bool{StateUnknown: false, StateUp: true, StateDraining: true, StateDown: false} {
		if s.Routable() != want {
			t.Errorf("%v.Routable() = %v", s, !want)
		}
	}
}
