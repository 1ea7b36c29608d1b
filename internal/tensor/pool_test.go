package tensor

import (
	"runtime"
	"runtime/debug"
	"testing"
	"time"
)

func TestScratchRoundsUpToClass(t *testing.T) {
	buf := GetScratch(100)
	if len(buf) != 100 {
		t.Fatalf("len = %d, want 100", len(buf))
	}
	if cap(buf) != 128 {
		t.Fatalf("cap = %d, want the next power of two 128", cap(buf))
	}
	PutScratch(buf)

	if got := GetScratch(0); got != nil {
		t.Fatalf("GetScratch(0) = %v, want nil", got)
	}
}

func TestScratchReusesBuffers(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a fraction of Puts under the race detector")
	}
	// Disable GC so sync.Pool cannot be drained mid-test.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	const n = 1 << 12
	warm := GetScratch(n)
	PutScratch(warm)

	before := ScratchStatsSnapshot().Allocs
	for i := 0; i < 16; i++ {
		buf := GetScratch(n)
		// Any length within the same class must reuse the same buffer.
		buf2 := GetScratch(n / 2)
		PutScratch(buf2)
		PutScratch(buf)
	}
	after := ScratchStatsSnapshot().Allocs
	// The half-size request is a different class and may allocate once; the
	// full-size requests must all be served from the pool.
	if after-before > 1 {
		t.Fatalf("steady-state loop allocated %d times, want <= 1", after-before)
	}
}

func TestNewScratchRecycleRoundTrip(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a fraction of Puts under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	warm := NewScratch(4, 8, 8)
	if got := warm.Size(); got != 4*8*8 {
		t.Fatalf("scratch tensor size %d, want %d", got, 4*8*8)
	}
	Recycle(warm)

	before := ScratchStatsSnapshot().Allocs
	for i := 0; i < 16; i++ {
		s := NewScratch(4, 8, 8)
		s.Data()[0] = float32(i)
		Recycle(s)
	}
	if got := ScratchStatsSnapshot().Allocs - before; got != 0 {
		t.Fatalf("NewScratch/Recycle loop allocated %d times, want 0", got)
	}
	Recycle(nil) // must not panic
}

func TestPutScratchDropsForeignBuffers(t *testing.T) {
	// A capacity that is not a pool class must be dropped, not pooled.
	foreign := make([]float32, 100) // cap 100, not a power of two
	before := ScratchStatsSnapshot().Puts
	PutScratch(foreign)
	if got := ScratchStatsSnapshot().Puts; got != before {
		t.Fatalf("foreign buffer was pooled (puts %d -> %d)", before, got)
	}
	PutScratch(nil) // must not panic
}

// TestScratchReleasedAfterTwoCollections: like sync.Pool, the pool must not
// pin idle buffers — one survives the first collection as a victim (so a
// GC in the middle of a step costs no allocation) and is dropped at a
// later one, once demotions minDemoteInterval apart have run.
func TestScratchReleasedAfterTwoCollections(t *testing.T) {
	const n = 1 << 10
	class, _ := scratchClass(n)
	pool := &scratchPools[class]
	pooled := func() int {
		pool.mu.Lock()
		defer pool.mu.Unlock()
		return len(pool.bufs) + len(pool.victim)
	}
	PutScratch(GetScratch(n))
	if pooled() == 0 {
		t.Fatal("Put buffer is not pooled")
	}
	runtime.GC()
	time.Sleep(10 * time.Millisecond)
	if pooled() == 0 {
		t.Fatal("one collection dropped a pooled buffer; it should survive as a victim")
	}
	// The demotion runs on the finalizer goroutine after each collection.
	deadline := time.Now().Add(4*minDemoteInterval + time.Second)
	for pooled() > 0 && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(20 * time.Millisecond)
	}
	if got := pooled(); got != 0 {
		t.Fatalf("%d idle buffers still pooled after repeated collections", got)
	}
}
