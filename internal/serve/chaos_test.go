package serve

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/httpsim"
	"repro/internal/testutil"
)

// TestChaosBoundedQueue saturates the bounded queue from many concurrent
// submitters over a fault-injected (flaky) universe and checks the
// no-lost-jobs invariant: every admitted job terminates with a result per
// URL, shed + admitted == attempted, and nothing leaks. Once the queue
// is idle, one more job scans a cleanly fetched URL twice and the second
// scan must be a verdict-cache hit — a check that holds however many of
// the concurrent submissions were shed. Run under -race in CI; the worker
// counts bracket the serial and parallel schedules.
func TestChaosBoundedQueue(t *testing.T) {
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers-%d", workers), func(t *testing.T) {
			testutil.VerifyNoLeaks(t)

			cfg := core.DefaultStudyConfig()
			cfg.Seed = 2
			cfg.Scale = 900
			cfg.DriveShortenerTraffic = false
			st, err := core.NewStudy(cfg)
			if err != nil {
				t.Fatal(err)
			}
			profile, ok := httpsim.ProfileByName("flaky")
			if !ok {
				t.Fatal("no flaky fault profile")
			}
			transport := httpsim.NewFaultInjector(st.Universe.Internet, profile, 2)

			cache := core.NewShardedVerdictCache(core.ShardedCacheConfig{Capacity: 128})
			scanner := NewScanner(transport, st.Detector, cache, nil)
			srv := NewServer(scanner, Config{QueueDepth: 8, Workers: workers})

			// URL material: every site in the tiny universe, cycled. Faults
			// make a share of fetches fail — those jobs must still terminate
			// with explicit error results.
			var urls []string
			for _, site := range st.Universe.Sites {
				urls = append(urls, site.EntryURL)
			}

			const submitters = 16
			const perSubmitter = 25
			var attempted, admitted, shedErrs atomic.Int64
			var mu sync.Mutex
			var ids []string

			var wg sync.WaitGroup
			for g := 0; g < submitters; g++ {
				g := g
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < perSubmitter; i++ {
						batch := []string{
							urls[(g*perSubmitter+i)%len(urls)],
							urls[(g*perSubmitter+i*3+1)%len(urls)],
						}
						attempted.Add(1)
						job, err := srv.Submit(fmt.Sprintf("tenant-%d", g%2), batch)
						switch err {
						case nil:
							admitted.Add(1)
							mu.Lock()
							ids = append(ids, job.ID)
							mu.Unlock()
						case ErrQueueFull:
							shedErrs.Add(1)
						default:
							t.Errorf("submit: %v", err)
							return
						}
					}
				}()
			}
			wg.Wait()

			// Let the queue go idle without closing it, so one more job
			// is admitted below.
			deadline := time.Now().Add(30 * time.Second)
			for st := srv.Stats(); st.Completed < st.Submitted; st = srv.Stats() {
				if time.Now().After(deadline) {
					t.Fatalf("queue never went idle: %+v", st)
				}
				time.Sleep(time.Millisecond)
			}
			// Fault decisions are a pure function of (seed, url, attempt),
			// so a URL that fetched cleanly fetches cleanly again.
			revisit := ""
			for _, id := range ids {
				job, _ := srv.Job(id)
				for _, r := range job.Results {
					if r.Error == "" && revisit == "" {
						revisit = r.URL
					}
				}
			}
			if revisit == "" {
				t.Fatalf("none of %d admitted jobs fetched a URL cleanly", len(ids))
			}
			hitsBefore := srv.Stats().Cache.Hits
			attempted.Add(1)
			again, err := srv.Submit("tenant-0", []string{revisit, revisit})
			if err != nil {
				t.Fatalf("submit on an idle queue: %v", err)
			}
			admitted.Add(1)
			ids = append(ids, again.ID)

			srv.Close() // drain: every admitted job must finish

			stats := srv.Stats()
			if stats.Submitted != admitted.Load() {
				t.Fatalf("stats.Submitted = %d, callers saw %d admissions", stats.Submitted, admitted.Load())
			}
			if stats.Shed != shedErrs.Load() {
				t.Fatalf("stats.Shed = %d, callers saw %d sheds", stats.Shed, shedErrs.Load())
			}
			// The invariant: nothing vanished. Every attempt was either
			// admitted (and completed during the drain) or shed.
			if stats.Completed+stats.Shed != attempted.Load() {
				t.Fatalf("completed %d + shed %d != attempted %d (lost jobs)",
					stats.Completed, stats.Shed, attempted.Load())
			}
			if stats.Completed != stats.Submitted {
				t.Fatalf("completed %d != submitted %d after drain", stats.Completed, stats.Submitted)
			}
			if stats.Queued != 0 {
				t.Fatalf("queue not empty after drain: %d", stats.Queued)
			}

			// Every admitted job is done, with exactly one result per URL
			// (fetch failures appear as explicit error results, not gaps).
			for _, id := range ids {
				job, ok := srv.Job(id)
				if !ok {
					t.Fatalf("admitted job %s vanished", id)
				}
				if job.State != JobDone {
					t.Fatalf("job %s state = %s after drain, want done", id, job.State)
				}
				if len(job.Results) != 2 {
					t.Fatalf("job %s has %d results, want 2", id, len(job.Results))
				}
			}

			if job, _ := srv.Job(again.ID); !job.Results[1].Cached || stats.Cache.Hits <= hitsBefore {
				t.Fatalf("rescanning %s missed the verdict cache: result %+v, hits %d -> %d",
					revisit, job.Results[1], hitsBefore, stats.Cache.Hits)
			}
		})
	}
}
