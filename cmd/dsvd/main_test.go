package main

import (
	"bytes"
	"context"
	"log"
	"net"
	"os"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/client"
	"repro/versioning"
)

// boot starts run on a free loopback port and waits until /healthz
// answers. stop cancels run's context and returns what run returned;
// it may be called again.
func boot(t *testing.T, args ...string) (c *client.Client, stop func() error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	ctx, cancel := context.WithCancel(context.Background())
	var runErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		runErr = run(ctx, append([]string{"-addr", addr}, args...))
	}()
	stop = func() error {
		cancel()
		<-done
		return runErr
	}
	t.Cleanup(func() { stop() })

	c = client.New("http://"+addr, client.Options{})
	t.Cleanup(c.Close)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err = c.Healthz(ctx); err == nil {
			return c, stop
		}
		select {
		case <-done:
			t.Fatalf("run returned before serving: %v", runErr)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("dsvd did not become healthy: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRunDurableRestart boots the real main with -data-dir -fsync,
// commits through the client, shuts down by cancelling the context as a
// signal would, and boots again on the same directory: the history is
// there, byte for byte.
func TestRunDurableRestart(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	versions := [][]string{
		{"alpha"},
		{"alpha", "beta"},
		{"gamma", "beta", ""},
	}

	c, stop := boot(t, "-data-dir", dir, "-fsync")
	parent := versioning.NoParent
	for i, lines := range versions {
		cr, err := c.Commit(ctx, parent, lines)
		if err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
		parent = cr.ID
	}
	if err := stop(); err != nil {
		t.Fatalf("run after cancel: %v, want nil once drained and flushed", err)
	}

	c, stop = boot(t, "-data-dir", dir, "-fsync")
	if n, err := c.Healthz(ctx); err != nil || n != len(versions) {
		t.Fatalf("healthz after restart: %d versions, %v; want %d", n, err, len(versions))
	}
	for i, want := range versions {
		got, err := c.Checkout(ctx, versioning.NodeID(i))
		if err != nil || !slices.Equal(got, want) {
			t.Fatalf("checkout %d after restart = %q, %v; want %q", i, got, err, want)
		}
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}

// TestRunRefusesSingleRepoFlagsWithMulti: flags -multi would drop are
// errors, not silently ignored.
func TestRunRefusesSingleRepoFlagsWithMulti(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-multi", "-data-dir", t.TempDir()}, "-data-dir is single-repo only; use -tenants-dir with -multi"},
		{[]string{"-multi", "-demo", "1"}, "-demo is single-repo only"},
	} {
		err := run(context.Background(), tc.args)
		if err == nil || err.Error() != tc.want {
			t.Errorf("run %v: %v, want %q", tc.args, err, tc.want)
		}
	}
}

// TestRunRefusesNegativeCacheBytes: a negative -cache-bytes is an error
// that names -cache -1, not a silent 64 MiB default.
func TestRunRefusesNegativeCacheBytes(t *testing.T) {
	const want = "-cache-bytes must not be negative; disable the checkout cache with -cache -1"
	for _, args := range [][]string{{"-cache-bytes", "-1"}, {"-multi", "-cache-bytes", "-4096"}} {
		if err := run(context.Background(), args); err == nil || err.Error() != want {
			t.Errorf("run %v: %v, want %q", args, err, want)
		}
	}
}

// TestRunInMemoryFleetLog: an in-memory fleet never evicts, and the
// start-up log must not announce a -max-open bound it does not apply.
func TestRunInMemoryFleetLog(t *testing.T) {
	var buf lockedBuffer
	log.SetOutput(&buf)
	defer log.SetOutput(os.Stderr)

	c, stop := boot(t, "-multi", "-max-open", "7")
	if _, err := c.Tenant("alice").Commit(context.Background(), versioning.NoParent, []string{"hi"}); err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "eviction disabled") || strings.Contains(out, "max 7 open") {
		t.Fatalf("start-up log contradicts itself:\n%s", out)
	}
}

// TestSIGQUITDumpsTenantsInNameOrder: under -multi the SIGQUIT dump
// writes one plan-observatory line per open tenant, sorted by name, so
// two dumps can be diffed.
func TestSIGQUITDumpsTenantsInNameOrder(t *testing.T) {
	var buf lockedBuffer
	log.SetOutput(&buf)
	defer log.SetOutput(os.Stderr)

	c, stop := boot(t, "-multi")
	names := []string{"frank", "carol", "alice", "eve", "dave", "bob"}
	for _, name := range names {
		if _, err := c.Tenant(name).Commit(context.Background(), versioning.NoParent, []string{name}); err != nil {
			t.Fatal(err)
		}
	}
	lines := sigquitVitals(t, &buf, len(names))
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, line := range lines {
		got = append(got, line[:strings.IndexByte(line, ']')])
	}
	want := slices.Clone(names)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("SIGQUIT dump tenant order = %v, want %v", got, want)
	}
}

// TestSIGQUITDumpsSingleRepoVitals: a single-repo daemon dumps the same
// vitals line as a tenant, under the repository's own name.
func TestSIGQUITDumpsSingleRepoVitals(t *testing.T) {
	var buf lockedBuffer
	log.SetOutput(&buf)
	defer log.SetOutput(os.Stderr)

	c, stop := boot(t)
	if _, err := c.Commit(context.Background(), versioning.NoParent, []string{"a"}); err != nil {
		t.Fatal(err)
	}
	got := sigquitVitals(t, &buf, 1)
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	const want = `dsvd]: replans=0 winner="" pending=1 history=0 failures=0`
	if len(got) != 1 || got[0] != want {
		t.Fatalf("SIGQUIT dump %q, want [%q]", got, want)
	}
}

// sigquitVitals sends the process SIGQUIT and waits until the log holds
// n plan-observatory lines; it returns each line after its "[".
func sigquitVitals(t *testing.T, buf *lockedBuffer, n int) []string {
	t.Helper()
	if err := syscall.Kill(os.Getpid(), syscall.SIGQUIT); err != nil {
		t.Fatal(err)
	}
	const prefix = "dsvd: plan observatory ["
	var got []string
	for deadline := time.Now().Add(10 * time.Second); len(got) < n; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("SIGQUIT dumped %d plan-observatory lines, want %d:\n%s", len(got), n, buf.String())
		}
		got = got[:0]
		for _, line := range strings.Split(buf.String(), "\n") {
			if _, rest, ok := strings.Cut(line, prefix); ok {
				got = append(got, rest)
			}
		}
	}
	return got
}

// lockedBuffer is a bytes.Buffer the daemon's goroutines can log into.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
