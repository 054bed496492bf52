package blockstore

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// randBlob derives a deterministic blob for (block, version) so
// equivalence checks can regenerate expected contents.
func randBlob(rng *rand.Rand, maxLen int) []byte {
	blob := make([]byte, rng.Intn(maxLen+1))
	rng.Read(blob)
	return blob
}

// TestTieredMatchesRAM drives a RAM store and a tiered store (budget
// tight enough to force constant eviction) through the same random
// Put/Get/Peek/hint sequence and requires identical contents and
// footprints throughout.
func TestTieredMatchesRAM(t *testing.T) {
	const n = 32
	rng := rand.New(rand.NewSource(42))
	ram := NewRAM(n)
	tiered, err := NewTiered(n, t.TempDir(), "test", 600)
	if err != nil {
		t.Fatal(err)
	}
	defer tiered.Close()
	for step := 0; step < 4000; step++ {
		b := rng.Intn(n)
		switch rng.Intn(10) {
		case 0, 1, 2, 3:
			blob := randBlob(rng, 100)
			if err := ram.Put(b, append([]byte(nil), blob...)); err != nil {
				t.Fatal(err)
			}
			if err := tiered.Put(b, blob); err != nil {
				t.Fatal(err)
			}
		case 4, 5, 6:
			want, _ := ram.Get(b)
			got, err := tiered.Get(b)
			if err != nil {
				t.Fatalf("step %d: Get(%d): %v", step, b, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("step %d: Get(%d) mismatch: %d vs %d bytes", step, b, len(got), len(want))
			}
		case 7, 8:
			want, _ := ram.Peek(b)
			got, err := tiered.Peek(b)
			if err != nil {
				t.Fatalf("step %d: Peek(%d): %v", step, b, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("step %d: Peek(%d) mismatch", step, b)
			}
		case 9:
			order := make([]int, 0, 8)
			for i := 0; i < 8; i++ {
				order = append(order, rng.Intn(n))
			}
			tiered.PrefetchHint(order)
		}
		if rf, tf := ram.Footprint(), tiered.Footprint(); rf != tf {
			t.Fatalf("step %d: footprint diverged: ram %d, tiered %d", step, rf, tf)
		}
	}
	if res := tiered.Resident(); res > 600+100 {
		// One most-recently-used blob may ride above the budget; more
		// means eviction is not holding the line.
		t.Fatalf("resident %d way over budget 600", res)
	}
}

// TestTieredEvictionBoundsResident fills a store far past its RAM
// budget and checks the resident gauge stays pinned near it while
// the full footprint keeps every byte.
func TestTieredEvictionBoundsResident(t *testing.T) {
	const n, blobLen, budget = 64, 100, 500
	st, err := NewTiered(n, t.TempDir(), "bounds", budget)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for b := 0; b < n; b++ {
		blob := bytes.Repeat([]byte{byte(b)}, blobLen)
		if err := st.Put(b, blob); err != nil {
			t.Fatal(err)
		}
		if res := st.Resident(); res > budget {
			t.Fatalf("after Put(%d): resident %d > budget %d", b, res, budget)
		}
	}
	if got, want := st.Footprint(), int64(n*blobLen); got != want {
		t.Fatalf("footprint %d, want %d", got, want)
	}
	if s := st.Stats(); s.SpillWrites == 0 || s.SpilledBytes == 0 {
		t.Fatalf("expected spill traffic, got %+v", s)
	}
	// Every blob must read back intact, resident or not.
	for b := 0; b < n; b++ {
		blob, err := st.Get(b)
		if err != nil {
			t.Fatal(err)
		}
		if len(blob) != blobLen || blob[0] != byte(b) {
			t.Fatalf("block %d corrupted on read-back", b)
		}
	}
}

// TestTieredFreeListBoundsFile overwrites the same blocks many times;
// extent reuse must keep the spill file from growing without bound.
func TestTieredFreeListBoundsFile(t *testing.T) {
	const n, blobLen, budget = 16, 128, 256
	dir := t.TempDir()
	st, err := NewTiered(n, dir, "freelist", budget)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 50; round++ {
		for b := 0; b < n; b++ {
			blob := make([]byte, blobLen)
			rng.Read(blob)
			if err := st.Put(b, blob); err != nil {
				t.Fatal(err)
			}
		}
	}
	fi, err := os.Stat(st.f.Name())
	if err != nil {
		t.Fatal(err)
	}
	// At most n blobs are ever live on disk at once; allow 2x for
	// fragmentation. Without the free list the file would be ~50x.
	if maxSize := int64(2 * n * blobLen); fi.Size() > maxSize {
		t.Fatalf("spill file grew to %d bytes (want ≤ %d): free list not reusing extents", fi.Size(), maxSize)
	}
}

// TestTieredPrefetchStages spills everything, hints the full order,
// and drains it: the prefetcher should serve most Gets from RAM.
func TestTieredPrefetchStages(t *testing.T) {
	const n, blobLen, budget = 32, 100, 400
	st, err := NewTiered(n, t.TempDir(), "prefetch", budget)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for b := 0; b < n; b++ {
		if err := st.Put(b, bytes.Repeat([]byte{byte(b)}, blobLen)); err != nil {
			t.Fatal(err)
		}
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	st.PrefetchHint(order)
	for _, b := range order {
		blob, err := st.Get(b)
		if err != nil {
			t.Fatal(err)
		}
		if len(blob) != blobLen || blob[0] != byte(b) {
			t.Fatalf("block %d corrupted", b)
		}
	}
	s := st.Stats()
	if s.PrefetchReads+s.SpillReads == 0 {
		t.Fatal("no disk reads at all despite spilled blocks")
	}
	// The walk is in hint order, so the prefetcher should win some
	// races; requiring ≥ 1 keeps the test robust on slow machines.
	if s.PrefetchHits == 0 && s.PrefetchReads > 0 {
		t.Logf("prefetcher staged %d blocks but every Get beat it (ok, just unlucky)", s.PrefetchReads)
	}
}

// TestTieredPrefetchWinsWithPacedConsumer is the prefetcher's
// guarantee under realistic pacing: when the consumer does real work
// between blocks (a sweep pass decompressing, applying gates, and
// recompressing takes far longer than a spill-file read), the
// prefetcher must absorb reads, not just avoid corrupting anything.
// The work is simulated with a sleep long enough to dominate any
// machine's disk latency, so the assertion can be hard.
func TestTieredPrefetchWinsWithPacedConsumer(t *testing.T) {
	const n, blobLen, budget = 32, 4 << 10, 16 << 10
	st, err := NewTiered(n, t.TempDir(), "paced", budget)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	blob := bytes.Repeat([]byte{7}, blobLen)
	for b := 0; b < n; b++ {
		if err := st.Put(b, append([]byte(nil), blob...)); err != nil {
			t.Fatal(err)
		}
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	st.PrefetchHint(order)
	for _, b := range order {
		if _, err := st.Get(b); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond) // the "codec work" on block b
		if err := st.Put(b, append([]byte(nil), blob...)); err != nil {
			t.Fatal(err)
		}
	}
	s := st.Stats()
	if s.PrefetchHits == 0 {
		t.Fatalf("paced consumer saw 0 prefetch hits (%d demand reads, %d prefetch reads): prefetcher is not staging ahead",
			s.SpillReads, s.PrefetchReads)
	}
	t.Logf("paced consumer: %d demand reads, %d prefetch reads, %d hits", s.SpillReads, s.PrefetchReads, s.PrefetchHits)
}

// TestTieredCloseRemovesFile checks Close deletes the spill file and
// is idempotent, and that operations after Close fail with ErrSpill.
func TestTieredCloseRemovesFile(t *testing.T) {
	dir := t.TempDir()
	st, err := NewTiered(8, dir, "close", 100)
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 8; b++ {
		if err := st.Put(b, bytes.Repeat([]byte{1}, 50)); err != nil {
			t.Fatal(err)
		}
	}
	name := st.f.Name()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(name); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("spill file %s still exists after Close", name)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("spill dir not empty after Close: %v", ents)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := st.Get(0); !errors.Is(err, ErrSpill) {
		t.Fatalf("Get after Close: got %v, want ErrSpill", err)
	}
}

// TestTieredBadDir checks construction failure reports ErrSpill.
func TestTieredBadDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "does", "not", "exist")
	if _, err := NewTiered(4, dir, "bad", 100); !errors.Is(err, ErrSpill) {
		t.Fatalf("got %v, want ErrSpill", err)
	}
	if _, err := NewTiered(4, t.TempDir(), "bad", 0); !errors.Is(err, ErrSpill) {
		t.Fatalf("zero budget: got %v, want ErrSpill", err)
	}
}

// TestTieredEmptyAndNilBlobs: empty blobs are stored (not absences),
// never spill, and round-trip as empty.
func TestTieredEmptyAndNilBlobs(t *testing.T) {
	st, err := NewTiered(4, t.TempDir(), "empty", 64)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Put(0, nil); err != nil {
		t.Fatal(err)
	}
	if err := st.Put(1, []byte{}); err != nil {
		t.Fatal(err)
	}
	if err := st.Put(2, bytes.Repeat([]byte{9}, 200)); err != nil { // forces eviction pressure
		t.Fatal(err)
	}
	for b := 0; b < 2; b++ {
		blob, err := st.Get(b)
		if err != nil {
			t.Fatal(err)
		}
		if len(blob) != 0 {
			t.Fatalf("block %d: want empty, got %d bytes", b, len(blob))
		}
	}
	if got := st.Footprint(); got != 200 {
		t.Fatalf("footprint %d, want 200", got)
	}
}

// TestTieredConcurrentDistinctBlocks exercises the documented
// contract under the race detector: many goroutines hammering
// DISTINCT blocks while hints fly.
func TestTieredConcurrentDistinctBlocks(t *testing.T) {
	const n, workers = 64, 8
	st, err := NewTiered(n, t.TempDir(), "race", 500)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for b := 0; b < n; b++ {
		if err := st.Put(b, bytes.Repeat([]byte{byte(b)}, 64)); err != nil {
			t.Fatal(err)
		}
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	st.PrefetchHint(order)
	done := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 500; i++ {
				b := rng.Intn(n/workers)*workers + w // worker-disjoint blocks
				if rng.Intn(2) == 0 {
					blob, err := st.Get(b)
					if err != nil {
						done <- err
						return
					}
					if len(blob) > 0 && blob[0] != byte(b) {
						done <- errors.New("cross-block corruption")
						return
					}
				} else if err := st.Put(b, bytes.Repeat([]byte{byte(b)}, 64)); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// BenchmarkRAMStoreGetPut times the default store's hot path — Get a
// slot, Put a same-size blob back (what a cache hit does) — on one
// goroutine and on two working distinct slot ranges, as the engine's
// workers do.
func BenchmarkRAMStoreGetPut(b *testing.B) {
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("goroutines=%d", workers), func(b *testing.B) {
			const slots = 64
			s := NewRAM(workers * slots)
			blob := make([]byte, 100)
			for i := 0; i < s.Len(); i++ {
				s.Put(i, blob)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < b.N/workers; i++ {
						slot := w*slots + i%slots
						cur, _ := s.Get(slot)
						s.Put(slot, cur)
					}
				}(w)
			}
			wg.Wait()
		})
	}
}
