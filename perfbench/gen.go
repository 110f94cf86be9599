package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// opFunc performs operation i on behalf of worker w. It returns when the
// response was complete (latency ends there; verification may follow) and
// whether the operation failed.
type opFunc func(w, i int) (done time.Time, err error)

// phase is one generator phase's tally. Latencies are in milliseconds: lat
// from the due time (open loop) or the send time (closed loop), svc always
// from the send time.
type phase struct {
	name       string
	sent       int
	ok         int
	failed     int
	unsent     int // open-loop operations abandoned past the hard stop
	lat        []float64
	idx        []int // operation index of each lat entry
	svc        []float64
	late       []float64 // generator wake-up lateness, open loop only
	backlogMax int
	elapsed    time.Duration
	firstErr   error
}

func (p *phase) attempted() int { return p.sent + p.unsent }
func (p *phase) failures() int  { return p.failed + p.unsent }

func (p *phase) String() string {
	return fmt.Sprintf("phase %s: sent=%d ok=%d failed=%d unsent=%d elapsed=%.2fs",
		p.name, p.sent, p.ok, p.failed, p.unsent, p.elapsed.Seconds())
}

// merge folds one worker's tally into p.
func (p *phase) merge(o *phase) {
	p.sent += o.sent
	p.ok += o.ok
	p.failed += o.failed
	p.unsent += o.unsent
	p.lat = append(p.lat, o.lat...)
	p.idx = append(p.idx, o.idx...)
	p.svc = append(p.svc, o.svc...)
	p.late = append(p.late, o.late...)
	p.backlogMax = max(p.backlogMax, o.backlogMax)
	if p.firstErr == nil {
		p.firstErr = o.firstErr
	}
}

// poissonOffsets returns seeded Poisson arrival offsets at rate per second
// covering dur.
func poissonOffsets(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= dur {
			return out
		}
		out = append(out, d)
	}
}

// evenOffsets returns n arrivals spaced evenly over dur.
func evenOffsets(n int, dur time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(int64(dur) * int64(i) / int64(n))
	}
	return out
}

// openLoop sends operation i at offsets[i] after the phase starts,
// regardless of earlier responses, from `workers` goroutines (one
// connection each). Latency runs from the due time, so a stall that delays
// later sends counts against every delayed operation. Lateness is how long
// a free worker overslept a due time: the generator's own delay, as opposed
// to the system's backlog. Operations still unsent at hardStop are
// abandoned and counted as failed.
func openLoop(name string, workers int, offsets []time.Duration, hardStop time.Duration, op opFunc) *phase {
	total := &phase{name: name}
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := &phase{}
			free := time.Now()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(offsets) {
					break
				}
				due := t0.Add(offsets[i])
				now := time.Now()
				if now.Sub(t0) > hardStop {
					p.unsent++
					continue
				}
				if d := due.Sub(now); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				woke := due
				if free.After(woke) {
					woke = free
				}
				p.late = append(p.late, ms(sent.Sub(woke)))
				// Backlog: operations already due but not yet claimed.
				dueNow := sort.Search(len(offsets), func(k int) bool { return offsets[k] > sent.Sub(t0) })
				p.backlogMax = max(p.backlogMax, dueNow-i-1)
				done, err := op(w, i)
				p.sent++
				if err != nil {
					p.failed++
					if p.firstErr == nil {
						p.firstErr = err
					}
				} else {
					p.ok++
					p.lat = append(p.lat, ms(done.Sub(due)))
					p.idx = append(p.idx, i)
					p.svc = append(p.svc, ms(done.Sub(sent)))
				}
				free = time.Now()
			}
			mu.Lock()
			total.merge(p)
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	total.elapsed = time.Since(t0)
	return total
}

// errExhausted tells closedLoop that the pre-encoded inputs ran out; the
// worker stops without counting an operation.
var errExhausted = errors.New("pre-encoded inputs exhausted")

// closedLoop runs `workers` goroutines that each send their next operation
// as soon as the previous one completes, until dur has passed.
func closedLoop(name string, workers int, dur time.Duration, op opFunc) *phase {
	total := &phase{name: name}
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := &phase{}
			for time.Since(t0) < dur {
				i := int(next.Add(1) - 1)
				sent := time.Now()
				done, err := op(w, i)
				if errors.Is(err, errExhausted) {
					break
				}
				p.sent++
				if err != nil {
					p.failed++
					if p.firstErr == nil {
						p.firstErr = err
					}
					continue
				}
				p.ok++
				p.lat = append(p.lat, ms(done.Sub(sent)))
				p.svc = append(p.svc, ms(done.Sub(sent)))
			}
			mu.Lock()
			total.merge(p)
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	total.elapsed = time.Since(t0)
	return total
}

// maxLateP99Ms bounds how late a free generator worker may send: beyond it
// the open-loop figures describe the load generator, not the system. The
// generator shares two vCPUs with the system under test, so a few
// milliseconds of lateness are the system's own CPU use.
const maxLateP99Ms = 50.0

// checkGenerator rejects an open-loop phase whose generator overslept or
// whose backlog of due operations exceeded maxBacklog. The single-core pass
// starves the generator by design and reports per-layer self times only,
// so it records lateness without judging it.
func checkGenerator(b *bench, p *phase, maxBacklog int) (lateP99 float64) {
	late := append([]float64(nil), p.late...)
	sort.Float64s(late)
	lateP99 = quantile(late, 0.99)
	if b.singleCore {
		return lateP99
	}
	b.check(lateP99 <= maxLateP99Ms, "%s: generator late p99 %.2fms exceeds %.0fms", p.name, lateP99, maxLateP99Ms)
	b.check(p.backlogMax <= maxBacklog, "%s: backlog reached %d operations (limit %d)", p.name, p.backlogMax, maxBacklog)
	return lateP99
}

// percentiles sorts lat in place and returns its median and q-quantile.
func percentiles(lat []float64, q float64) (p50, pq float64) {
	sort.Float64s(lat)
	return quantile(lat, 0.5), quantile(lat, q)
}
