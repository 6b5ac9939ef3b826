package flight

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitFor polls cond until it holds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// park gives goroutines that have announced themselves on started time
// to block inside Do. A parked follower holds no lock and changes no
// state, so there is no event to wait on; every assertion that follows a
// park tolerates a follower that arrived late and ran fn itself, except
// where noted.
func park(started *sync.WaitGroup) {
	started.Wait()
	time.Sleep(20 * time.Millisecond)
}

// inFlight reports whether key has a leader right now.
func inFlight[K comparable, V any](g *Group[K, V], key K) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	_, ok := g.calls[key]
	return ok
}

func TestFollowersShareResultAndError(t *testing.T) {
	for _, wantErr := range []error{nil, errors.New("backend down")} {
		var g Group[string, int]
		var runs atomic.Int32
		release := make(chan struct{})
		fn := func() (int, error) {
			runs.Add(1)
			<-release
			return 42, wantErr
		}
		const followers = 8
		type outcome struct {
			v      int
			shared bool
			err    error
		}
		out := make(chan outcome, followers+1)
		do := func() {
			v, shared, err := g.Do(context.Background(), "k", fn)
			out <- outcome{v, shared, err}
		}
		go do()
		waitFor(t, "leader", func() bool { return inFlight(&g, "k") })
		var started sync.WaitGroup
		for i := 0; i < followers; i++ {
			started.Add(1)
			go func() {
				started.Done()
				do()
			}()
		}
		park(&started)
		close(release)
		leaders := 0
		for i := 0; i < followers+1; i++ {
			o := <-out
			if o.v != 42 || !errors.Is(o.err, wantErr) {
				t.Fatalf("outcome = %+v, want 42, %v", o, wantErr)
			}
			if !o.shared {
				leaders++
			}
		}
		if int(runs.Load()) != leaders || g.Shared() != int64(followers+1-leaders) {
			t.Fatalf("runs=%d leaders=%d shared=%d", runs.Load(), leaders, g.Shared())
		}
		// Not late-arrival tolerant: all eight followers would have to
		// miss a 20ms window after announcing themselves.
		if leaders == followers+1 {
			t.Fatalf("no call was shared")
		}
		if inFlight(&g, "k") {
			t.Fatalf("key not released")
		}
	}
}

func TestFollowerCancellationLeavesLeaderAlone(t *testing.T) {
	var g Group[int, string]
	release := make(chan struct{})
	leaderDone := make(chan error, 1)
	go func() {
		v, shared, err := g.Do(context.Background(), 1, func() (string, error) {
			<-release
			return "ok", nil
		})
		if v != "ok" || shared {
			err = errors.Join(err, errors.New("leader did not get its own result"))
		}
		leaderDone <- err
	}()
	waitFor(t, "leader", func() bool { return inFlight(&g, 1) })

	ctx, cancel := context.WithCancel(context.Background())
	followerDone := make(chan error, 1)
	go func() {
		_, _, err := g.Do(ctx, 1, func() (string, error) {
			return "", errors.New("follower ran fn")
		})
		followerDone <- err
	}()
	cancel()
	if err := <-followerDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("follower err = %v, want context.Canceled", err)
	}
	if !inFlight(&g, 1) {
		t.Fatalf("follower's cancellation released the leader's key")
	}
	close(release)
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader: %v", err)
	}
	if g.Shared() != 0 {
		t.Fatalf("shared = %d, want 0: the cancelled follower was served nothing", g.Shared())
	}
}

func TestCancelledLeaderMakesFollowerLeader(t *testing.T) {
	var g Group[int, string]
	lctx, cancelLeader := context.WithCancel(context.Background())
	var runs atomic.Int32
	fn := func(ctx context.Context) func() (string, error) {
		return func() (string, error) {
			if runs.Add(1) == 1 {
				<-ctx.Done()
				return "", ctx.Err()
			}
			return "fresh", nil
		}
	}
	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := g.Do(lctx, 7, fn(lctx))
		leaderDone <- err
	}()
	waitFor(t, "leader", func() bool { return inFlight(&g, 7) })

	const followers = 4
	var wg, started sync.WaitGroup
	for i := 0; i < followers; i++ {
		wg.Add(1)
		started.Add(1)
		go func() {
			defer wg.Done()
			started.Done()
			v, _, err := g.Do(context.Background(), 7, fn(context.Background()))
			if v != "fresh" || err != nil {
				t.Errorf("follower got %q, %v; want the re-run's result", v, err)
			}
		}()
	}
	park(&started) // on the doomed leader
	cancelLeader()
	if err := <-leaderDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader err = %v, want its own cancellation", err)
	}
	wg.Wait()
	// One follower re-ran as leader; the rest shared its result unless
	// they arrived after it finished, in which case they ran too. Never
	// may all of them have inherited the cancellation (checked above),
	// and at least one re-run must have happened.
	if n := runs.Load(); n < 2 || n > 1+followers {
		t.Fatalf("fn ran %d times, want 2..%d", n, 1+followers)
	}
}

func TestPanickingLeaderReleasesFollowers(t *testing.T) {
	var g Group[int, int]
	release := make(chan struct{})
	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		g.Do(context.Background(), 3, func() (int, error) {
			<-release
			panic("boom")
		})
	}()
	waitFor(t, "leader", func() bool { return inFlight(&g, 3) })
	followerDone := make(chan error, 1)
	var started sync.WaitGroup
	started.Add(1)
	go func() {
		started.Done()
		_, _, err := g.Do(context.Background(), 3, func() (int, error) { return 0, nil })
		followerDone <- err
	}()
	park(&started)
	close(release)
	if r := <-panicked; r != "boom" {
		t.Fatalf("leader recovered %v, want the panic to propagate", r)
	}
	select {
	case err := <-followerDone:
		// A follower parked on the leader gets the panic error; one that
		// arrived after the release ran its own fn and got nil.
		if err != nil && !errors.Is(err, errLeaderPanicked) {
			t.Fatalf("follower err = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("follower still blocked after the leader panicked")
	}
	if inFlight(&g, 3) {
		t.Fatalf("panicking leader left its key registered")
	}
	// The key is usable again.
	if v, shared, err := g.Do(context.Background(), 3, func() (int, error) { return 9, nil }); v != 9 || shared || err != nil {
		t.Fatalf("Do after panic = %d, %v, %v", v, shared, err)
	}
}
