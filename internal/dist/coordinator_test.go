package dist

import (
	"encoding/json"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// haltCoordinator builds a coordinator whose run loop is driven by hand:
// the test places members and posts their events, then calls haltAll. The
// heartbeat timeout is long, as if every member kept sending heartbeats.
func haltCoordinator(t *testing.T, stepTimeout time.Duration, tr *telemetry.Tracer) *Coordinator {
	t.Helper()
	c, err := NewCoordinator(CoordinatorConfig{Width: 2, Spec: testSpec(t), StepTimeout: stepTimeout,
		HeartbeatTimeout: time.Hour, Tracer: tr, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.ln.Close() })
	c.gen = 1
	return c
}

// joinMember adds a worker whose control link swallows whatever the
// coordinator sends. slot ≥ 0 places it in the running generation.
func joinMember(t *testing.T, c *Coordinator, addr string, slot int) *member {
	t.Helper()
	a, b := net.Pipe()
	go io.Copy(io.Discard, b)
	t.Cleanup(func() { a.Close() })
	m := newMember(a, addr)
	m.lastSeen = time.Now()
	if slot >= 0 {
		m.slot, m.idle = slot, false
	}
	c.members = append(c.members, m)
	return m
}

// haltWithin runs haltAll and fails if it takes longer than limit.
func haltWithin(t *testing.T, c *Coordinator, limit time.Duration) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		c.haltAll()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(limit):
		t.Fatalf("haltAll still waiting after %v", limit)
	}
}

// TestHaltSlotsRejoinerAsIdle: a worker that joined while the failed
// generation still held every slot, and is slotted only when the halt wait
// drops the dead member, was never sent a halt. It must count as idle, or
// the halt waits on an ack that never comes.
func TestHaltSlotsRejoinerAsIdle(t *testing.T) {
	c := haltCoordinator(t, time.Minute, nil)
	alive := joinMember(t, c, "alive", 0)
	dead := joinMember(t, c, "dead", 1)
	rejoiner := joinMember(t, c, "rejoiner", -1)
	c.post(event{m: dead, err: io.EOF})
	c.post(event{m: alive, msg: ctrlMsg{Type: msgHaltAck, Gen: c.gen, Suspect: -1}})

	haltWithin(t, c, 10*time.Second)
	if rejoiner.slot != 1 {
		t.Fatalf("rejoiner holds slot %d, want the dead member's slot 1", rejoiner.slot)
	}
}

// TestHaltWaitIsBounded: a member that never acknowledges the halt is
// dropped after StepTimeout, and a halt_wait event names its slot.
func TestHaltWaitIsBounded(t *testing.T) {
	var sb strings.Builder
	tr := telemetry.NewTracer(&sb, telemetry.TracerOptions{})
	c := haltCoordinator(t, 300*time.Millisecond, tr)
	acked := joinMember(t, c, "acked", 0)
	joinMember(t, c, "silent", 1)
	c.post(event{m: acked, msg: ctrlMsg{Type: msgHaltAck, Gen: c.gen, Suspect: -1}})

	haltWithin(t, c, 10*time.Second)
	if len(c.members) != 1 || c.members[0] != acked {
		t.Fatalf("members after the halt wait: %d, want only the acked one", len(c.members))
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(sb.String()), "\n") {
		var r telemetry.Record
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("bad trace line %q: %v", line, err)
		}
		if r.Name == "halt_wait" {
			if r.Attrs["slots"] != "1" {
				t.Fatalf("halt_wait slots = %q, want \"1\"", r.Attrs["slots"])
			}
			return
		}
	}
	t.Fatalf("no halt_wait event in trace:\n%s", sb.String())
}
