package main

import (
	"crypto/sha256"
	"encoding/binary"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The machine the benchmark runs on is a few cores of a shared host, and
// its speed drifts: for minutes at a time every phase of every workload —
// set-up, fixpoint, process CPU time — runs 10 to 30 % slower, then
// recovers. Runs of the same code then differ by more than any bound a
// change could be held to. The benchmark therefore times a fixed piece of
// work of its own, the host probe, between reps, and reports fixpoint_s,
// setup_s and cpu_s in seconds of a host that runs the probe at the
// reference speed: measured seconds ÷ (the run's median probe time ÷ the
// reference time).
// README.md records what this does to the run-to-run spread.
//
// The probe is benchmark code only, so no change to the program can make
// it faster, and it runs only between reps, when no cluster exists, so
// nothing the program leaves running can make it slower unnoticed.
//
// hostRefWall and hostRefCPU are the probe's median wall and process-CPU
// seconds on a quiet 2-core host of the class the baseline was recorded on;
// there the factors are 1 and the reported seconds are the measured ones.
const (
	hostRefWall = 0.0153
	hostRefCPU  = 0.0292
)

// One probe sample is probeChunks chunks of fixed work shared between
// GOMAXPROCS goroutines through a counter, the way the node loops share the
// cores: when a neighbour takes part of a core the sample slows by the
// throughput lost, as a fixpoint does. A chunk mixes what the workloads
// do — dependent integer arithmetic, cache-missing loads, map inserts and
// lookups with small allocations, hashing — so that a slowdown that hits
// only one of them still shows.
const (
	probeChunks     = 64
	probeTableBytes = 8 << 20
	probeMixIters   = 80_000
	probeLoads      = 3_000
	probeMapEntries = 400
	probeHashBlocks = 12
)

// hostProbe holds one load table per goroutine. The tables are mapped
// outside the Go heap so the probe does not change the garbage collector's
// pacing for the program being measured.
type hostProbe struct {
	tables [][]byte
}

func newHostProbe() (*hostProbe, error) {
	p := &hostProbe{}
	for lane := 0; lane < runtime.GOMAXPROCS(0); lane++ {
		mem, err := syscall.Mmap(-1, 0, probeTableBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			p.Close()
			return nil, err
		}
		p.tables = append(p.tables, mem)
		// Slot i holds the slot visited after it. Sattolo's shuffle makes
		// the whole table one cycle, so a walk never settles into a loop
		// short enough to stay in a cache.
		n := probeTableBytes / 4
		next := make([]uint32, n)
		for i := range next {
			next[i] = uint32(i)
		}
		x := uint64(0x9E3779B97F4A7C15)
		for i := n - 1; i > 0; i-- {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			j := int(x % uint64(i))
			next[i], next[j] = next[j], next[i]
		}
		for i, v := range next {
			binary.LittleEndian.PutUint32(mem[4*i:], v)
		}
	}
	return p, nil
}

func (p *hostProbe) Close() {
	for _, mem := range p.tables {
		syscall.Munmap(mem) // the process is about to exit; nothing to do on failure
	}
	p.tables = nil
}

// probeChunk does chunk number `chunk` of a sample on the given table and
// returns a checksum of everything it computed, which depends only on the
// chunk number.
func probeChunk(table []byte, chunk int) uint64 {
	x := uint64(chunk)*2654435761 + 1
	for i := 0; i < probeMixIters; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	at := uint32(x>>33) % uint32(len(table)/4)
	for i := 0; i < probeLoads; i++ {
		at = binary.LittleEndian.Uint32(table[4*at:])
	}
	x += uint64(at)
	m := make(map[uint64][]byte)
	for i := 0; i < probeMapEntries; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		v := make([]byte, 32)
		binary.LittleEndian.PutUint64(v, x)
		m[x>>40] = v
	}
	var sum uint64
	for k, v := range m {
		if w, ok := m[k^1]; ok {
			sum += uint64(w[0])
		}
		sum += binary.LittleEndian.Uint64(v)
	}
	var block [4096]byte
	binary.LittleEndian.PutUint64(block[:], x+sum)
	for i := 0; i < probeHashBlocks; i++ {
		s := sha256.Sum256(block[:])
		copy(block[:], s[:])
	}
	return binary.LittleEndian.Uint64(block[:])
}

// sample runs the probe once and returns the wall and process-CPU seconds
// it took, and the sum of the chunk checksums (the same for every sample).
// The clocks start when every goroutine is running: waking an idle core of
// a virtual machine can take milliseconds, which is not the host's speed.
func (p *hostProbe) sample() (wall, cpu float64, checksum uint64) {
	lanes := int32(len(p.tables))
	var arrived atomic.Int32
	var released atomic.Bool
	var next atomic.Int64
	var total atomic.Uint64
	var start time.Time
	var cpu0 float64
	var wg sync.WaitGroup
	for _, table := range p.tables {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if arrived.Add(1) == lanes {
				cpu0, start = cpuSeconds(), time.Now()
				released.Store(true)
			}
			for !released.Load() {
			}
			for {
				chunk := int(next.Add(1)) - 1
				if chunk >= probeChunks {
					return
				}
				total.Add(probeChunk(table, chunk))
			}
		}()
	}
	wg.Wait()
	return time.Since(start).Seconds(), cpuSeconds() - cpu0, total.Load()
}
