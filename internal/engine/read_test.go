package engine

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lightor/internal/core"
)

// emitN publishes n scripted dots (times start+1 … start+n) the way the
// mailbox worker does after a feed — full control over the emission
// history for snapshot-semantics tests, with nothing queued so nothing
// races the publish.
func emitN(s *Session, start, n int) {
	dots := make([]core.RedDot, n)
	for i := range dots {
		dots[i] = core.RedDot{Time: float64(start + i + 1), Score: 1}
	}
	s.publishDots(dots)
}

// TestDotsPageSnapshotSemantics pins the read-fast-lane contract: cursor
// clamping, a version that moves only when dots are published, and
// copy-on-write immutability — a loaded page is bit-stable forever, no
// matter how much the session emits afterwards.
func TestDotsPageSnapshotSemantics(t *testing.T) {
	init, _ := trainedFixture(t)
	eng := newTestEngine(t, init, Config{})
	s, err := eng.Sessions().Open("scripted")
	if err != nil {
		t.Fatal(err)
	}

	// Empty session: every cursor clamps to the empty tip.
	for _, cursor := range []int{-5, 0, 3} {
		page, next, _ := s.DotsPage(cursor)
		if len(page) != 0 || next != 0 {
			t.Fatalf("DotsPage(%d) on empty session = (%d dots, next %d), want (0, 0)", cursor, len(page), next)
		}
	}
	v0 := s.DotsVersion()

	emitN(s, 0, 3)
	page1, next1, v1 := s.DotsPage(0)
	if next1 != 3 || len(page1) != 3 {
		t.Fatalf("after 3 emissions: next=%d len=%d, want 3/3", next1, len(page1))
	}
	if v1 <= v0 {
		t.Fatalf("version did not advance on publish: %d -> %d", v0, v1)
	}
	// Re-reading without new emissions must not move the version: it is
	// the response-cache key, and steady-state pollers must keep hitting.
	if _, _, v := s.DotsPage(1); v != v1 {
		t.Fatalf("read moved the version: %d -> %d", v1, v)
	}

	// Mid-history and past-the-end cursors.
	mid, next, _ := s.DotsPage(2)
	if len(mid) != 1 || mid[0].Time != 3 || next != 3 {
		t.Fatalf("DotsPage(2) = %v next %d, want [dot t=3] next 3", mid, next)
	}
	if tail, next, _ := s.DotsPage(99); len(tail) != 0 || next != 3 {
		t.Fatalf("DotsPage(99) = (%d dots, next %d), want clamped empty tip", len(tail), next)
	}

	// Immutability: the old page must not observe later emissions.
	emitN(s, 3, 2)
	if len(page1) != 3 || page1[0].Time != 1 || page1[2].Time != 3 {
		t.Fatalf("published snapshot mutated under a reader: %v", page1)
	}
	page2, next2, v2 := s.DotsPage(0)
	if next2 != 5 || len(page2) != 5 || v2 <= v1 {
		t.Fatalf("after 2 more emissions: next=%d len=%d version %d->%d", next2, len(page2), v1, v2)
	}
	// Prefix consistency across snapshots.
	for i, d := range page1 {
		if page2[i] != d {
			t.Fatalf("snapshot prefix diverged at %d: %v vs %v", i, page2[i], d)
		}
	}

	// Dots() keeps copy semantics: mutating its result must not corrupt
	// the shared snapshot other readers hold.
	cp, _ := s.Dots(0)
	cp[0].Time = -42
	if fresh, _, _ := s.DotsPage(0); fresh[0].Time == -42 {
		t.Fatal("Dots() returned the shared snapshot; callers can corrupt the read path")
	}
}

// TestDotVersionsUniqueAcrossSessions pins the cache-safety property: a
// channel id reused by a successor broadcast never reissues a version the
// first broadcast already used, so stale (channel, version)-keyed cache
// entries can never be served for the new session.
func TestDotVersionsUniqueAcrossSessions(t *testing.T) {
	init, _ := trainedFixture(t)
	eng := newTestEngine(t, init, Config{})

	s1, err := eng.Sessions().Open("reused")
	if err != nil {
		t.Fatal(err)
	}
	emitN(s1, 0, 2)
	_, _, v1 := s1.DotsPage(0)
	if _, err := eng.Sessions().CloseSession(context.Background(), "reused"); err != nil {
		t.Fatal(err)
	}

	s2, err := eng.Sessions().Open("reused")
	if err != nil {
		t.Fatal(err)
	}
	if v2 := s2.DotsVersion(); v2 <= v1 {
		t.Fatalf("successor session reissued version %d (predecessor reached %d)", v2, v1)
	}
}

// TestConcurrentDotsPollersRace is the read-path race drill from the
// production story: 1000 concurrent pollers with mixed starting cursors
// hammer DotsPage on ONE session while batched ingest and checkpointing
// race on the same session. Every poller must observe a prefix-consistent,
// gap-free dot sequence (each page extends its history exactly where the
// previous cursor left off, versions never go backwards), and after the
// stream quiesces every poller's accumulated history must converge to the
// same final sequence. Run under -race this also proves the lock-free
// snapshot publication is data-race-free against the write path.
func TestConcurrentDotsPollersRace(t *testing.T) {
	const (
		pollers = 1000
		batch   = 64
	)
	init, target := trainedFixture(t)
	ckpts := newMemCheckpoints()
	eng := newTestEngine(t, init, Config{
		Checkpoints:        ckpts,
		CheckpointInterval: time.Millisecond,
	})
	s, err := eng.Sessions().GetOrOpen("race-channel")
	if err != nil {
		t.Fatal(err)
	}
	msgs := target.Chat.Log.Messages()
	if len(msgs) > 4096 {
		msgs = msgs[:4096]
	}

	var stop atomic.Bool
	type pollerResult struct {
		start int
		got   []core.RedDot
		err   string
	}
	results := make([]pollerResult, pollers)
	starts := []int{0, 0, 0, 1, 2, 7, 1 << 20} // mixed cursors; huge ones clamp to the tip
	var wg sync.WaitGroup
	for p := 0; p < pollers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			res := &results[p]
			res.start = -1
			cursor := starts[p%len(starts)]
			lastVer := uint64(0)
			for {
				done := stop.Load() // loaded BEFORE the final page, so the tail is never missed
				page, next, ver := s.DotsPage(cursor)
				if ver < lastVer {
					res.err = "version went backwards"
					return
				}
				lastVer = ver
				if got := next - len(page); res.start == -1 {
					res.start = got
				} else if got != res.start+len(res.got) {
					res.err = "gap: page does not start at the previous cursor"
					return
				}
				res.got = append(res.got, page...)
				cursor = next
				if done {
					return
				}
				runtime.Gosched()
			}
		}(p)
	}

	// Checkpoint loop racing the readers and the writer (on top of the
	// 1ms interval checkpoints).
	ckptDone := make(chan struct{})
	go func() {
		defer close(ckptDone)
		ctx := context.Background()
		for !stop.Load() {
			if err := s.Checkpoint(ctx); err != nil {
				t.Errorf("checkpoint: %v", err)
				return
			}
			runtime.Gosched()
		}
	}()

	// Batched ingest, paced so the read/write race window stays open.
	for i := 0; i < len(msgs); i += batch {
		end := min(i+batch, len(msgs))
		if err := s.Ingest(msgs[i:end]...); err != nil {
			t.Fatal(err)
		}
		time.Sleep(500 * time.Microsecond)
	}
	deadline := time.Now().Add(30 * time.Second)
	for s.Pending() > 0 {
		if time.Now().After(deadline) {
			t.Fatal("mailbox never drained")
		}
		time.Sleep(time.Millisecond)
	}

	stop.Store(true)
	wg.Wait()
	<-ckptDone

	final, finalNext := s.Dots(0)
	if finalNext == 0 {
		t.Fatal("stream emitted no dots; race test is vacuous")
	}
	for p := range results {
		res := &results[p]
		if res.err != "" {
			t.Fatalf("poller %d: %s", p, res.err)
		}
		if res.start+len(res.got) != finalNext {
			t.Fatalf("poller %d cursor did not converge: start %d + %d dots != final %d",
				p, res.start, len(res.got), finalNext)
		}
		for i, d := range res.got {
			if final[res.start+i] != d {
				t.Fatalf("poller %d diverged at offset %d: got %v, want %v",
					p, res.start+i, d, final[res.start+i])
			}
		}
	}
}

// recordingListener captures the DotListener event stream for assertions.
type recordingListener struct {
	mu        sync.Mutex
	published []uint64 // snapshot version at each DotsPublished
	channels  []string // channel at each DotsPublished
	closed    []string // channels reported via SessionClosed
}

func (l *recordingListener) DotsPublished(s *Session) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.published = append(l.published, s.DotsVersion())
	l.channels = append(l.channels, s.Channel())
}

func (l *recordingListener) SessionClosed(channel string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = append(l.closed, channel)
}

// TestDotListenerLifecycle pins the push-delivery hook contract: every
// snapshot publication is reported (after the pointer swap, with the
// session's version already at the published value), CloseSession reports
// the channel after its final dots, and a nil store unregisters.
func TestDotListenerLifecycle(t *testing.T) {
	init, _ := trainedFixture(t)
	eng := newTestEngine(t, init, Config{})
	lis := &recordingListener{}
	eng.Sessions().SetDotListener(lis)

	s, err := eng.Sessions().Open("hooked")
	if err != nil {
		t.Fatal(err)
	}
	emitN(s, 0, 3)
	emitN(s, 3, 2)

	lis.mu.Lock()
	pubs := append([]uint64(nil), lis.published...)
	chans := append([]string(nil), lis.channels...)
	lis.mu.Unlock()
	if len(pubs) != 2 {
		t.Fatalf("got %d DotsPublished events for 2 emitting batches, want 2", len(pubs))
	}
	for i, ch := range chans {
		if ch != "hooked" {
			t.Fatalf("event %d reported channel %q, want %q", i, ch, "hooked")
		}
	}
	if pubs[1] <= pubs[0] {
		t.Fatalf("listener saw non-monotonic versions: %v", pubs)
	}
	if cur := s.DotsVersion(); pubs[1] != cur {
		t.Fatalf("last event version %d != current snapshot version %d", pubs[1], cur)
	}

	if _, err := eng.Sessions().CloseSession(context.Background(), "hooked"); err != nil {
		t.Fatal(err)
	}
	lis.mu.Lock()
	closed := append([]string(nil), lis.closed...)
	lis.mu.Unlock()
	if len(closed) != 1 || closed[0] != "hooked" {
		t.Fatalf("SessionClosed events = %v, want exactly [hooked]", closed)
	}

	// Unregister: further publications must not reach the old listener.
	eng.Sessions().SetDotListener(nil)
	s2, err := eng.Sessions().Open("unhooked")
	if err != nil {
		t.Fatal(err)
	}
	emitN(s2, 0, 1)
	lis.mu.Lock()
	n := len(lis.published)
	lis.mu.Unlock()
	if n != 2 {
		t.Fatalf("unregistered listener still observed publications: %d events", n)
	}
}

// TestDotsPageZeroAlloc is the read fast lane's allocation contract: a
// lock-free DotsPage load allocates nothing, for a new viewer fetching
// the whole history and for a steady-state poller at the tip alike.
func TestDotsPageZeroAlloc(t *testing.T) {
	init, _ := trainedFixture(t)
	eng := newTestEngine(t, init, Config{})
	s, err := eng.Sessions().Open("scripted")
	if err != nil {
		t.Fatal(err)
	}
	emitN(s, 0, 64)
	_, tip, _ := s.DotsPage(0)
	if tip != 64 {
		t.Fatalf("tip = %d, want 64", tip)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		full, _, _ := s.DotsPage(0)
		fresh, _, _ := s.DotsPage(tip)
		if len(full) != tip || len(fresh) != 0 {
			t.Fatalf("DotsPage lost dots: %d from 0, %d from the tip", len(full), len(fresh))
		}
	})
	if allocs != 0 {
		t.Fatalf("DotsPage allocates %.2f allocs/op, want 0", allocs)
	}
}
