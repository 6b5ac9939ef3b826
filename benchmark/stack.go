package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/store"
	"repro/internal/trace"
	"repro/serve"
	"repro/tenant"
	"repro/versioning"
)

// A stack is one running dsvd: a child process built from cmd/dsvd for
// the untraced run, or the same handlers assembled in this process from
// the public constructors for the traced run and the tests.
type stack interface {
	url() string
	// stop ends the daemon without a graceful drain: SIGKILL for a
	// process, so only what the journal already holds survives; a plain
	// Close in-process, where nothing can be killed.
	stop() error
	peakRSSMB() (float64, error)
}

// launcher starts a stack on dir (reopening whatever a previous stack
// left there).
type launcher func(dir string) (stack, error)

const solverTimeout = 5 * time.Second // dsvd's -timeout default

// daemonArgs renders the spec as cmd/dsvd flags. It must say the same
// as repoOptions and serveOptions below.
func (s spec) daemonArgs(addr, dir string) []string {
	args := []string{
		"-addr", addr,
		"-problem", "MSR",
		"-replan-every", strconv.Itoa(s.replanEvery),
		"-cache", strconv.Itoa(s.cacheEntries),
		"-cache-bytes", strconv.FormatInt(s.cacheBytes, 10),
		"-resp-cache", strconv.FormatInt(s.respCacheBytes, 10),
	}
	if s.fsync {
		args = append(args, "-fsync")
	}
	switch {
	case s.tenants > 0:
		args = append(args, "-multi", "-max-open", strconv.Itoa(s.maxOpen))
		if s.durable {
			args = append(args, "-tenants-dir", dir)
		}
	case s.durable:
		args = append(args, "-data-dir", dir)
	}
	return args
}

func (s spec) repoOptions() versioning.RepositoryOptions {
	return versioning.RepositoryOptions{
		Problem:      versioning.ProblemMSR,
		AutoFactor:   2,
		ReplanEvery:  s.replanEvery,
		CacheEntries: s.cacheEntries,
		CacheBytes:   s.cacheBytes,
		SyncWrites:   s.fsync,
		GroupCommit:  true,
		EngineOptions: versioning.EngineOptions{
			SolverTimeout: solverTimeout,
			DisableILP:    true,
		},
	}
}

func (s spec) serveOptions() serve.Options {
	return serve.Options{
		QueueWait:      100 * time.Millisecond,
		RetryAfter:     time.Second,
		Tracer:         trace.New(trace.Options{}),
		RespCacheBytes: s.respCacheBytes,
	}
}

func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

func waitHealthy(url string, exited <-chan struct{}) error {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-exited:
			return errors.New("daemon exited before serving")
		case <-time.After(5 * time.Millisecond):
		}
	}
	return errors.New("daemon not healthy after 10s")
}

type process struct {
	cmd    *exec.Cmd
	addr   string
	exited chan struct{}
}

// processLauncher runs bin (a built cmd/dsvd) with the spec's flags,
// its log going to logPath.
func processLauncher(s spec, bin, logPath string) launcher {
	return func(dir string) (stack, error) {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		defer logf.Close() // the child holds its own descriptor
		cmd := exec.Command(bin, s.daemonArgs(addr, dir)...)
		cmd.Stdout, cmd.Stderr = logf, logf
		// A benchmark that is killed itself must not leave its daemon behind.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := cmd.Start(); err != nil {
			return nil, fmt.Errorf("starting %s: %w", bin, err)
		}
		p := &process{cmd: cmd, addr: addr, exited: make(chan struct{})}
		go func() {
			_ = cmd.Wait() // the exit status of a killed daemon says nothing
			close(p.exited)
		}()
		if err := waitHealthy(p.url(), p.exited); err != nil {
			_ = p.stop()
			return nil, fmt.Errorf("%w (see %s)", err, logPath)
		}
		return p, nil
	}
}

func (p *process) url() string { return "http://" + p.addr }

func (p *process) stop() error {
	err := p.cmd.Process.Kill()
	<-p.exited
	if errors.Is(err, os.ErrProcessDone) {
		return nil
	}
	return err
}

// peakRSSMB reads the daemon's resident-set high-water mark.
func (p *process) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// inproc is the in-process stack. Exactly one of repo and mgr is set.
type inproc struct {
	ln      net.Listener
	hs      *http.Server
	srv     *serve.Server
	repo    *versioning.Repository
	mgr     *tenant.Manager
	backend *tracedBackend // nil in multi mode: the manager opens each tenant's backend itself
}

// inprocLauncher assembles the stack the way cmd/dsvd does, with the
// recorder's handler and backend wrappers around it (inert while the
// recorder is nil or off). onStart sees every stack it launches.
func inprocLauncher(s spec, rec *recorder, onStart func(*inproc)) launcher {
	return func(dir string) (stack, error) {
		p := &inproc{}
		ropt := s.repoOptions()
		if s.tenants > 0 {
			mo := s.maxOpen
			root := dir
			if !s.durable {
				mo, root = -1, ""
			}
			p.mgr = tenant.NewManager(tenant.Options{RootDir: root, MaxOpen: mo, Repo: ropt})
			p.srv = serve.NewMulti(p.mgr, s.serveOptions())
		} else {
			var inner store.Backend = store.NewShardedMemBackend(0)
			if s.durable {
				ropt.DataDir = dir
				disk, err := store.OpenDiskBackend(dir)
				if err != nil {
					return nil, err
				}
				inner = disk
			}
			p.backend = &tracedBackend{Backend: inner, rec: rec}
			ropt.Backend = p.backend
			repo, err := versioning.Open("dsvd", ropt)
			if err != nil {
				return nil, err
			}
			p.repo = repo
			p.srv = serve.New(repo, s.serveOptions())
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		p.ln = ln
		p.hs = &http.Server{Handler: tracedHandler(p.srv, rec)}
		go p.hs.Serve(ln) // returns when stop closes the server
		if onStart != nil {
			onStart(p)
		}
		return p, nil
	}
}

func (p *inproc) url() string { return "http://" + p.ln.Addr().String() }

func (p *inproc) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := p.hs.Shutdown(ctx)
	p.srv.Close()
	if p.mgr != nil {
		return errors.Join(err, p.mgr.Close())
	}
	return errors.Join(err, p.repo.Close())
}

func (p *inproc) peakRSSMB() (float64, error) { return 0, nil }

// fsType names the filesystem a directory is on, from /proc/mounts
// (the longest mount point that prefixes the path wins).
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	data, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, kind := "", "unknown"
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) >= len(best) {
			best, kind = mp, f[2]
		}
	}
	return kind
}
