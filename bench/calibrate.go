package main

import (
	"crypto/sha256"
	"encoding/json"
	"math"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"
)

// The hosts this benchmark runs on share their cores with other virtual
// machines, and their speed drifts by tens of percent over minutes. A
// run therefore also times a fixed reference kernel between operations
// and reports every time at the speed of a host on which the kernel
// takes refKernelMs: an operation's time is scaled by refKernelMs over
// the median kernel time of the probes around it. The kernel is made of
// the kinds of work the workloads do (integer and memory work, alone
// and on every core at once, JSON coding with hashing, map and slice
// allocation, and goroutine hand-offs) but shares no code with the
// system under test. A run probes only while the system is idle
// (between machine jobs; between fleet-ingest's slices, when the reader
// is paused and nothing waits to merge), so neither the system's code
// nor its load can move the kernel.
//
// reference.json holds each end-to-end metric with and without this
// correction, from the same runs, to show what it removes.

// refKernelMs fixes the scale the metrics are reported at; comparisons
// between runs do not depend on it. On the 2-vCPU host of
// reference.json the kernel's median drifted between 5 and 9 ms.
const refKernelMs = 4.0

// calibrateEvery is how often a run times the kernel; an operation is
// scaled by the probes within calibrateAround of it.
const (
	calibrateEvery  = 250 * time.Millisecond
	calibrateAround = time.Second
)

// calibrator collects kernel times over a run.
type calibrator struct {
	samples []probeSample // in time order
	last    time.Time
	tables  [][]uint64 // one per core
	doc     *doc
}

type probeSample struct {
	at time.Time
	ms float64
}

// doc is the kernel's JSON document.
type doc struct {
	Name     string
	Values   [8]uint64
	Children []*doc
}

func newDoc(depth int, seed uint64) *doc {
	d := &doc{Name: "node-" + strconv.FormatUint(seed, 16)}
	for i := range d.Values {
		d.Values[i] = seed * uint64(i+1)
	}
	if depth > 0 {
		for i := 0; i < 4; i++ {
			d.Children = append(d.Children, newDoc(depth-1, seed*31+uint64(i)))
		}
	}
	return d
}

// walk does integer and memory work over a 256 KiB table.
func walk(table []uint64) uint64 {
	x, acc := uint64(88172645463325252), uint64(0)
	for i := 0; i < 1<<18; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & uint64(len(table)-1)
		v := table[j] + x
		if v&1 == 0 {
			acc += v
		} else {
			acc ^= v >> 3
		}
		table[j] = v
	}
	return acc
}

// parts are the kernel's components; a probe times each on its own.
func (c *calibrator) parts() []func() uint64 {
	return []func() uint64{
		func() uint64 { return walk(c.tables[0]) },
		func() uint64 { // the same walk on every core at once
			var wg sync.WaitGroup
			sums := make([]uint64, len(c.tables))
			for i := range c.tables {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					sums[i] = walk(c.tables[i])
				}(i)
			}
			wg.Wait()
			return sums[0]
		},
		func() uint64 { // JSON round trip and a hash
			b, _ := json.Marshal(c.doc)
			var d doc
			json.Unmarshal(b, &d)
			return uint64(sha256.Sum256(b)[0]) + uint64(len(d.Children))
		},
		func() uint64 { // map and slice allocation
			m := make(map[string][]byte)
			for i := 0; i < 5000; i++ {
				m[strconv.Itoa(i)] = make([]byte, 64)
			}
			return uint64(len(m))
		},
		func() uint64 { // goroutine hand-offs
			in, out := make(chan int), make(chan int)
			go func() {
				for v := range in {
					out <- v + 1
				}
				close(out)
			}()
			n := 0
			for i := 0; i < 2000; i++ {
				in <- i
				n = <-out
			}
			close(in)
			<-out
			return uint64(n)
		},
	}
}

// probe times each part of the kernel three times and keeps each
// part's best, which drops a probe's preemptions but keeps the host's
// slower periods.
func (c *calibrator) probe() {
	if c.tables == nil {
		c.tables = make([][]uint64, runtime.GOMAXPROCS(0))
		for i := range c.tables {
			c.tables[i] = make([]uint64, 1<<15)
		}
		c.doc = newDoc(4, 7)
	}
	total := 0.0
	for _, part := range c.parts() {
		best := math.Inf(1)
		for i := 0; i < 3; i++ {
			t := time.Now()
			kernelSink += part()
			best = math.Min(best, ms(time.Since(t)))
		}
		total += best
	}
	c.last = time.Now()
	c.samples = append(c.samples, probeSample{at: c.last, ms: total})
}

var kernelSink uint64

// due probes when calibrateEvery has passed since the last probe.
func (c *calibrator) due() {
	if time.Since(c.last) >= calibrateEvery {
		c.probe()
	}
}

// scale is the factor that turns a time measured in this run into the
// reference host's time.
func (c *calibrator) scale() float64 {
	return c.scaleOf(c.samples)
}

// scaleAround is scale for an operation that ran from start to end: it
// uses only the probes within calibrateAround of the operation (at
// least the three nearest), so it follows the host's drift within a run.
func (c *calibrator) scaleAround(start, end time.Time) float64 {
	lo := sort.Search(len(c.samples), func(i int) bool { return !c.samples[i].at.Before(start.Add(-calibrateAround)) })
	hi := sort.Search(len(c.samples), func(i int) bool { return c.samples[i].at.After(end.Add(calibrateAround)) })
	for hi-lo < 3 && (lo > 0 || hi < len(c.samples)) {
		if lo > 0 {
			lo--
		}
		if hi < len(c.samples) {
			hi++
		}
	}
	return c.scaleOf(c.samples[lo:hi])
}

// timed is one operation as measured: when it ran, and the wall and
// CPU time it took.
type timed struct {
	start, end time.Time
	wall, cpu  time.Duration
}

// scaled returns the operations' wall and CPU times in ms at the
// reference host's speed, each scaled by the probes around it.
func (c *calibrator) scaled(ops []timed) (walls, cpus []float64) {
	for _, op := range ops {
		sc := c.scaleAround(op.start, op.end)
		walls = append(walls, ms(op.wall)*sc)
		cpus = append(cpus, ms(op.cpu)*sc)
	}
	return walls, cpus
}

// scaleOf is 1 without probes, so a zero calibrator gives the times as
// measured.
func (c *calibrator) scaleOf(samples []probeSample) float64 {
	if len(samples) == 0 {
		return 1
	}
	xs := make([]float64, len(samples))
	for i, s := range samples {
		xs[i] = s.ms
	}
	return refKernelMs / median(xs)
}
