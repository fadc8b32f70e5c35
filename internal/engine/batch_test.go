package engine

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"lightor/internal/chat"
	"lightor/internal/core"
)

// TestBatchVsSequentialEquivalence is the engine half of the batching
// contract: splitting the same stream into different batch sizes must
// change nothing observable — emitted dots, watermark, and the serialized
// checkpoint must be bit-identical to the one-message-at-a-time path.
func TestBatchVsSequentialEquivalence(t *testing.T) {
	init, target := trainedFixture(t)
	msgs := target.Chat.Log.Messages()
	if len(msgs) < 600 {
		t.Fatalf("simulated chat too small: %d messages", len(msgs))
	}

	type outcome struct {
		dots      []core.RedDot
		watermark float64
		ckpt      []byte
	}
	run := func(batch int) outcome {
		store := newMemCheckpoints()
		eng := newTestEngine(t, init, Config{Checkpoints: store, CheckpointInterval: -1})
		s, err := eng.Sessions().GetOrOpen("ch")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < len(msgs); i += batch {
			end := min(i+batch, len(msgs))
			if err := s.Ingest(msgs[i:end]...); err != nil {
				t.Fatal(err)
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		// Checkpoint BEFORE flush so the serialized state reflects the
		// fully-ingested live session, comparable across batch sizes.
		if err := s.Checkpoint(ctx); err != nil {
			t.Fatal(err)
		}
		wm := s.Watermark()
		ckpt := store.Checkpoints()["ch"]
		if len(ckpt) == 0 {
			t.Fatal("no checkpoint written")
		}
		dots, err := s.Flush(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return outcome{dots: dots, watermark: wm, ckpt: ckpt}
	}

	want := run(1)
	if len(want.dots) == 0 {
		t.Fatal("sequential run emitted no dots; test data is useless")
	}
	for _, batch := range []int{3, 16, 64, 256, len(msgs)} {
		got := run(batch)
		if !reflect.DeepEqual(got.dots, want.dots) {
			t.Errorf("batch %d emitted %d dots, want %d (must match batch-1 exactly)",
				batch, len(got.dots), len(want.dots))
		}
		if got.watermark != want.watermark {
			t.Errorf("batch %d watermark = %v, want %v", batch, got.watermark, want.watermark)
		}
		if !bytes.Equal(got.ckpt, want.ckpt) {
			t.Errorf("batch %d checkpoint differs from batch-1 (%d vs %d bytes)",
				batch, len(got.ckpt), len(want.ckpt))
		}
	}
}

// TestConcurrentBurstIngest hammers many channels with large batches under
// -race: every channel must still reproduce the serial reference exactly,
// and the pooled batch buffers must never leak one channel's messages into
// another (which DeepEqual against the reference would expose as wrong
// dots).
func TestConcurrentBurstIngest(t *testing.T) {
	init, target := trainedFixture(t)
	msgs := target.Chat.Log.Messages()
	want := referenceOnline(t, init, msgs, true)
	if len(want) == 0 {
		t.Fatal("reference online run emitted no dots")
	}

	eng := newTestEngine(t, init, Config{SessionWorkers: 4})
	const channels = 12
	var wg sync.WaitGroup
	errs := make([]error, channels)
	got := make([][]core.RedDot, channels)
	for c := 0; c < channels; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			s, err := eng.Sessions().GetOrOpen(fmt.Sprintf("burst-%d", c))
			if err != nil {
				errs[c] = err
				return
			}
			// Bursts, not trickles: alternate huge and single-message
			// batches so pooled buffers of very different sizes recycle
			// across channels concurrently.
			batch := 256
			if c%3 == 1 {
				batch = 1
			}
			for i := 0; i < len(msgs); i += batch {
				end := min(i+batch, len(msgs))
				if err := s.Ingest(msgs[i:end]...); err != nil {
					errs[c] = err
					return
				}
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			got[c], errs[c] = s.Flush(ctx)
		}(c)
	}
	wg.Wait()
	for c := 0; c < channels; c++ {
		if errs[c] != nil {
			t.Fatalf("channel %d: %v", c, errs[c])
		}
		if !reflect.DeepEqual(got[c], want) {
			t.Errorf("channel %d emitted %d dots, want %d", c, len(got[c]), len(want))
		}
	}
}

// TestInBatchRejectionLeavesSessionUntouched: a batch that fails the
// in-batch order check must not move the watermark, must not reach the
// detector, and must not perturb later (valid) ingest.
func TestInBatchRejectionLeavesSessionUntouched(t *testing.T) {
	init, target := trainedFixture(t)
	msgs := target.Chat.Log.Messages()
	want := referenceOnline(t, init, msgs, true)

	eng := newTestEngine(t, init, Config{})
	s, err := eng.Sessions().GetOrOpen("ch")
	if err != nil {
		t.Fatal(err)
	}
	half := len(msgs) / 2
	if err := s.Ingest(msgs[:half]...); err != nil {
		t.Fatal(err)
	}
	wm := s.Watermark()

	// Valid head, disordered tail: the whole batch must be rejected
	// atomically — no prefix may leak into the detector.
	bad := []chat.Message{
		{Time: wm + 1, Text: "fine"},
		{Time: wm + 5, Text: "fine"},
		{Time: wm + 2, Text: "regression"},
	}
	if err := s.Ingest(bad...); err == nil {
		t.Fatal("disordered batch accepted")
	}
	if got := s.Watermark(); got != wm {
		t.Fatalf("rejected batch moved watermark: %v -> %v", wm, got)
	}

	// Continue with the true remainder: the final emissions must equal the
	// uninterrupted serial reference, proving no rejected message was fed.
	if err := s.Ingest(msgs[half:]...); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	dots, err := s.Flush(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dots, want) {
		t.Errorf("emissions after rejected batch = %d dots, want %d", len(dots), len(want))
	}
}

// TestCheckpointWhileBatchIngesting runs blocking checkpoints concurrently
// with large-batch ingest (-race): emissions must match the serial
// reference, and every checkpoint taken mid-burst must be restorable into
// a detector whose state is a true prefix of the stream.
func TestCheckpointWhileBatchIngesting(t *testing.T) {
	init, target := trainedFixture(t)
	msgs := target.Chat.Log.Messages()
	want := referenceOnline(t, init, msgs, true)

	store := newMemCheckpoints()
	eng := newTestEngine(t, init, Config{Checkpoints: store, CheckpointInterval: -1, SessionWorkers: 2})
	s, err := eng.Sessions().GetOrOpen("ch")
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var ckptWG sync.WaitGroup
	ckptWG.Add(1)
	go func() {
		defer ckptWG.Done()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := s.Checkpoint(ctx); err != nil {
				return // session flushed: done
			}
			// Restore the latest checkpoint into a fresh detector: it must
			// decode and hold a watermark within the stream's range.
			state := store.Checkpoints()["ch"]
			od, err := core.NewOnlineDetector(init, 0)
			if err != nil {
				t.Error(err)
				return
			}
			if err := od.RestoreSnapshot(state); err != nil {
				t.Errorf("mid-burst checkpoint unrestorable: %v", err)
				return
			}
		}
	}()

	for i := 0; i < len(msgs); i += 256 {
		end := min(i+256, len(msgs))
		if err := s.Ingest(msgs[i:end]...); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	dots, err := s.Flush(ctx)
	close(stop)
	ckptWG.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dots, want) {
		t.Errorf("emissions with concurrent checkpoints = %d dots, want %d", len(dots), len(want))
	}
}

// TestEnvelopeRing unit-tests the mailbox ring: FIFO order across growth
// and wrap-around, and slot clearing on pop.
func TestEnvelopeRing(t *testing.T) {
	var r envelopeRing
	if _, ok := r.pop(); ok {
		t.Fatal("empty ring popped")
	}
	// Interleave pushes and pops so the window wraps across growth.
	next, want := 0, 0
	push := func(n int) {
		for i := 0; i < n; i++ {
			r.push(envelope{advance: float64(next)})
			next++
		}
	}
	popCheck := func(n int) {
		for i := 0; i < n; i++ {
			env, ok := r.pop()
			if !ok || env.advance != float64(want) {
				t.Fatalf("pop = %v, %v; want advance %d", env, ok, want)
			}
			want++
		}
	}
	push(5)
	popCheck(3)
	push(10) // forces growth with head != 0
	popCheck(7)
	push(40)     // second growth
	popCheck(45) // drain the 5 leftovers plus all 40
	if r.len() != 0 {
		t.Fatalf("ring len = %d after draining", r.len())
	}
	if _, ok := r.pop(); ok {
		t.Fatal("drained ring popped")
	}
}

// TestSessionWorkersDefault: the pool defaults to GOMAXPROCS and honors an
// explicit override.
func TestSessionWorkersDefault(t *testing.T) {
	init, _ := trainedFixture(t)
	eng := newTestEngine(t, init, Config{})
	if got, want := eng.Sessions().Workers(), runtime.GOMAXPROCS(0); got != want {
		t.Errorf("default workers = %d, want GOMAXPROCS %d", got, want)
	}
	eng2 := newTestEngine(t, init, Config{SessionWorkers: 3})
	if got := eng2.Sessions().Workers(); got != 3 {
		t.Errorf("override workers = %d, want 3", got)
	}
}

// TestBatchedIngestZeroAlloc is the batched mailbox's allocation contract:
// a 256-message Session.Ingest into a warm session — watermark check,
// pooled buffer copy, ring enqueue, worker dispatch, and the detector
// feeding the whole slice — allocates nothing.
func TestBatchedIngestZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector; CI runs this un-raced")
	}
	init, target := trainedFixture(t)
	pool := target.Chat.Log.Messages()[:512]
	eng := newTestEngine(t, init, Config{SessionWorkers: 1})
	s, err := eng.Sessions().GetOrOpen("zero-alloc")
	if err != nil {
		t.Fatal(err)
	}
	// Four closed windows pending under the δ horizon, then the clock
	// held mid-window with the open window's vocabulary warm.
	size := init.Config().WindowSize
	hold := 4*size + size/2
	var warm []chat.Message
	for ts := 0.0; ts < 4*size; ts += size / 64 {
		warm = append(warm, chat.Message{Time: ts, Text: pool[len(warm)%len(pool)].Text})
	}
	burst := make([]chat.Message, 256)
	for i := range burst {
		burst[i] = chat.Message{Time: hold, User: "u", Text: pool[i].Text}
	}
	if err := s.Ingest(warm...); err != nil {
		t.Fatal(err)
	}
	// Bounded backlog: an unbounded one would defeat buffer recycling and
	// measure queue growth instead of the hot path.
	ingest := func() {
		if err := s.Ingest(burst...); err != nil {
			t.Fatal(err)
		}
		for s.Pending() > 2 {
			runtime.Gosched()
		}
	}
	for i := 0; i < 8; i++ {
		ingest()
	}
	if allocs := testing.AllocsPerRun(200, ingest); allocs != 0 {
		t.Fatalf("batched Session.Ingest allocates %.2f allocs/op, want 0", allocs)
	}
}
