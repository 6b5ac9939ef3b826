package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// The sandbox shares its host. For minutes at a time the same binary
// runs a third slower, or twice as fast, as in the minutes before, and
// a run of half a minute sits inside one such spell: no amount of
// repeating within the run averages it out, and ten runs of one commit
// differed by more than any bound worth setting. So between requests
// the load generator does a fixed piece of work of its own, the
// reference unit, on the CPU the daemon runs on (see affinity.go), and
// every timing is reported at reference speed: divided by how much
// slower than nominal the reference units next to it ran. A
// change to dsvd cannot move the reference, which is this file's code
// alone; a busy host moves both alike. The raw timings and the speed
// of every phase go to standard error.

// A yardstick is the reference unit of one run and the scale it is
// read against. The CPU unit: hash 16 KiB and decode
// a 200-line checkout response, roughly what a client and a daemon do
// to a version, half of it compute and half of it allocation and memory
// traffic. Against a daemon that fsyncs its journal nearly every timing
// waits for the disk, whose spells are longer and deeper than the
// CPU's, so there the unit goes on to write what a commit writes, in
// a directory of its own next to the daemon's data: a new 4 KiB file,
// fsynced and renamed into place as the store publishes an object, and
// a 4 KiB fsynced append as the journal takes a record.
type yardstick struct {
	// nominalMS is what one unit takes on a quiet sandbox. It only fixes
	// the scale: a reported millisecond is a sandbox millisecond with
	// the neighbours asleep.
	nominalMS float64
	// every is how long a client goes between two units: the CPU units
	// take about a fiftieth of the window, the writing ones a twentieth.
	every time.Duration
	// bracket is how many writing units go before and after a timed
	// re-plan (see around). A single bracket is too few to trust (the
	// first units after a re-plan find the caches cold), so the plan
	// phase pools them. The CPU unit runs alongside the re-plan instead.
	bracket int

	dir     string   // where the unit writes; "" for the CPU unit
	journal *os.File // in dir
	mu      sync.Mutex
	err     error // the first failed write; measure fails the run on it
}

func cpuYardstick() *yardstick {
	return &yardstick{nominalMS: 0.1, every: 5 * time.Millisecond}
}

// diskYardstick makes the yardstick that writes under dir.
func diskYardstick(dir string) (*yardstick, error) {
	if err := os.Mkdir(dir, 0o755); err != nil {
		return nil, err
	}
	journal, err := os.Create(filepath.Join(dir, "journal"))
	if err != nil {
		return nil, err
	}
	return &yardstick{nominalMS: 1.5, every: 20 * time.Millisecond, bracket: 5, dir: dir, journal: journal}, nil
}

func (y *yardstick) close() {
	if y.journal != nil {
		y.journal.Close() // nothing reads it; only its timing mattered
	}
}

var (
	refBuf  = make([]byte, 16*kib)
	refDoc  = refDocument()
	refSink atomic.Int64 // keeps the compiler from dropping the unit's work
)

func refDocument() []byte {
	lines := make([]string, 200)
	for i := range lines {
		lines[i] = fmt.Sprintf("commit branch parent digest bounds budget %06d", i)
	}
	doc, err := json.Marshal(map[string]any{"id": 7, "lines": lines})
	if err != nil {
		panic(err) // a map of strings always marshals
	}
	return doc
}

// unit does the reference work once and returns how long it took, in ms.
func (y *yardstick) unit() float64 {
	t0 := time.Now()
	sum := sha256.Sum256(refBuf)
	var resp struct {
		ID    int      `json:"id"`
		Lines []string `json:"lines"`
	}
	if err := json.Unmarshal(refDoc, &resp); err != nil {
		panic(err) // refDoc is this file's own
	}
	refSink.Add(int64(sum[0]) + int64(len(resp.Lines)))
	if y.dir != "" {
		y.mu.Lock() // clients share the yardstick
		if y.err == nil {
			y.err = y.write()
		}
		y.mu.Unlock()
	}
	return msOf(time.Since(t0))
}

func (y *yardstick) write() error {
	tmp, err := os.CreateTemp(y.dir, "object.tmp*")
	if err != nil {
		return err
	}
	defer tmp.Close() // closed twice on the path that succeeds; the error of the first close is the one checked
	if _, err := tmp.Write(refBuf[:4*kib]); err != nil {
		return err
	}
	if err := tmp.Sync(); err != nil {
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), filepath.Join(y.dir, "object")); err != nil {
		return err
	}
	if _, err := y.journal.Write(refBuf[:4*kib]); err != nil {
		return err
	}
	return y.journal.Sync()
}

// slowdown is how many times slower than nominal the units ran: the
// number a timing taken next to them is divided by. No units, no
// correction.
func (y *yardstick) slowdown(ms []float64) float64 {
	if len(ms) == 0 {
		return 1
	}
	return median(ms) / y.nominalMS
}

// refSampler collects reference units next to the work of one
// goroutine.
type refSampler struct {
	y    *yardstick
	last time.Time
	ms   []float64
}

// tick does one unit if the yardstick's interval has passed since the
// last.
func (s *refSampler) tick() {
	if time.Since(s.last) >= s.y.every {
		s.burst(1)
	}
}

// burst does n units at once.
func (s *refSampler) burst(n int) {
	for i := 0; i < n; i++ {
		s.ms = append(s.ms, s.y.unit())
	}
	s.last = time.Now()
}

// around times f, one request that takes from a hundredth of a second
// to a second (a re-plan), with units next to it, and returns those
// units besides keeping them. The machine changes speed within such a
// request, and only units done meanwhile see the speed it ran at: so
// the CPU unit runs alongside f on a goroutine of its own, one every
// y.every (the daemon shares this CPU; the units take a fiftieth of
// it). The writing unit goes in a bracket before and after f instead:
// its fsyncs would queue with the ones f waits for.
func (s *refSampler) around(f func() error) (seconds float64, near []float64, err error) {
	timed := func() {
		t0 := time.Now()
		err = f()
		seconds = time.Since(t0).Seconds()
	}
	if s.y.dir != "" {
		n0 := len(s.ms)
		s.burst(s.y.bracket)
		timed()
		s.burst(s.y.bracket)
		return seconds, slices.Clone(s.ms[n0:]), err
	}
	done, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		tick := time.NewTicker(s.y.every)
		defer tick.Stop()
		for {
			near = append(near, s.y.unit())
			select {
			case <-done:
				return
			case <-tick.C:
			}
		}
	}()
	timed()
	close(done)
	<-stopped
	s.ms = append(s.ms, near...)
	s.last = time.Now()
	return seconds, near, err
}
