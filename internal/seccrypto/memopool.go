package seccrypto

import (
	"crypto/sha256"
	"encoding/binary"
	"runtime"
	"sync"

	"secureblox/internal/obs"
)

// memoPool is the worker pool with a memoizing cache behind SignPool and
// VerifyPool: compute(args) runs at most once per cache key, on a worker
// when it was warmed ahead of use and inline otherwise, and every other
// request for the key waits for that one result. A published entry always
// has a worker or an inline caller bound to complete it, so waiting on
// whatever the cache holds is safe.
type memoPool[A, R any] struct {
	compute func(A) R
	jobs    chan memoJob[A, R]
	wg      sync.WaitGroup

	mu      sync.Mutex
	cache   map[[32]byte]*memoEntry[R]
	maxSize int
	closed  bool // jobs is closed: warm must not send

	hits, misses *obs.Counter // this pool's children of the registered hit/miss families
}

type memoEntry[R any] struct {
	done chan struct{}
	val  R
}

type memoJob[A, R any] struct {
	args A
	e    *memoEntry[R]
}

// newMemoPool starts workers goroutines (GOMAXPROCS if workers <= 0); the
// pool's hits and misses roll up into the two registered families.
func newMemoPool[A, R any](workers int, compute func(A) R, hits, misses *obs.Counter) *memoPool[A, R] {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &memoPool[A, R]{
		compute: compute,
		// A full queue only turns a warm-up into a later inline computation;
		// 256 holds the warm-ups of one inbound run (up to 64 datagrams of a
		// few payloads each) while every worker is busy.
		jobs:    make(chan memoJob[A, R], 256),
		cache:   make(map[[32]byte]*memoEntry[R]),
		maxSize: 8192,
		hits:    hits.Child(),
		misses:  misses.Child(),
	}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

func (p *memoPool[A, R]) run(j memoJob[A, R]) {
	j.e.val = p.compute(j.args)
	close(j.e.done)
}

func (p *memoPool[A, R]) worker() {
	defer p.wg.Done()
	for j := range p.jobs {
		p.run(j)
	}
}

// Close returns once the workers have completed whatever was still queued
// and exited, so no caller is left waiting on an entry that will never
// finish; later warm-ups are dropped and get computes inline.
func (p *memoPool[A, R]) Close() {
	p.mu.Lock()
	p.closed = true
	close(p.jobs)
	p.mu.Unlock()
	p.wg.Wait()
}

// Stats returns how many requests were served from the cache (hits) and how
// many required an RSA computation (misses): one miss is exactly one
// computation.
func (p *memoPool[A, R]) Stats() (hits, misses int64) {
	return p.hits.Value(), p.misses.Value()
}

// cacheKey derives the cache key for one request. Length prefixes keep
// distinct requests from colliding by concatenation.
func cacheKey(parts ...[]byte) [32]byte {
	h := sha256.New()
	var lenBuf [8]byte
	for _, part := range parts {
		binary.LittleEndian.PutUint64(lenBuf[:], uint64(len(part)))
		h.Write(lenBuf[:])
		h.Write(part)
	}
	var k [32]byte
	h.Sum(k[:0])
	return k
}

// insertLocked publishes a fresh entry for k, counts the miss, and evicts
// completed entries once the cache outgrows maxSize — never an entry in
// flight, which a waiter may hold a reference to. Callers hold p.mu.
func (p *memoPool[A, R]) insertLocked(k [32]byte, e *memoEntry[R]) {
	p.misses.Inc()
	p.cache[k] = e
	if len(p.cache) <= p.maxSize {
		return
	}
	for k, e := range p.cache {
		select {
		case <-e.done:
			delete(p.cache, k)
		default:
		}
		if len(p.cache) <= p.maxSize/2 {
			return
		}
	}
}

// warm schedules an asynchronous computation for k if it is not already
// cached or in flight. It never blocks: when the worker queue is full the
// request is simply left for get to compute inline. The cache insert and
// the enqueue happen atomically under the lock, so a published entry always
// has a worker bound to complete it.
func (p *memoPool[A, R]) warm(k [32]byte, args A) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, exists := p.cache[k]; exists {
		p.hits.Inc()
		return
	}
	if p.closed {
		return
	}
	e := &memoEntry[R]{done: make(chan struct{})}
	select {
	case p.jobs <- memoJob[A, R]{args: args, e: e}:
		p.insertLocked(k, e)
	default:
		// Queue full: leave the request uncached for get to compute.
	}
}

// get returns compute(args), waiting for an in-flight warm-up when one
// exists, computing inline (and caching) otherwise.
func (p *memoPool[A, R]) get(k [32]byte, args A) R {
	p.mu.Lock()
	e, exists := p.cache[k]
	if exists {
		p.hits.Inc()
		p.mu.Unlock()
		<-e.done
		return e.val
	}
	e = &memoEntry[R]{done: make(chan struct{})}
	p.insertLocked(k, e)
	p.mu.Unlock()
	p.run(memoJob[A, R]{args: args, e: e})
	return e.val
}
