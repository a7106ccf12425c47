package seccrypto

import (
	"crypto/sha256"
	"encoding/binary"
	"sync"

	"secureblox/internal/obs"
)

// memo is the memoizing cache behind SignPool and VerifyPool: compute(args)
// runs at most once per cache key, on the goroutine of the first caller, and
// every concurrent request for the key waits for that one result. It starts
// no goroutines; a published entry always has its first caller bound to
// complete it, so waiting on whatever the cache holds is safe.
type memo[A, R any] struct {
	compute func(A) R

	mu      sync.Mutex
	cache   map[[32]byte]*memoEntry[R]
	maxSize int

	hits, misses *obs.Counter // the registered hit/miss families of the memo's kind
}

type memoEntry[R any] struct {
	done chan struct{}
	val  R
}

// newMemo builds an empty memo that counts its hits and misses into the two
// registered families.
func newMemo[A, R any](compute func(A) R, hits, misses *obs.Counter) *memo[A, R] {
	return &memo[A, R]{
		compute: compute,
		cache:   make(map[[32]byte]*memoEntry[R]),
		maxSize: 8192,
		hits:    hits,
		misses:  misses,
	}
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
// flight, which a waiter may hold a reference to. Callers hold m.mu.
func (m *memo[A, R]) insertLocked(k [32]byte, e *memoEntry[R]) {
	m.misses.Inc()
	m.cache[k] = e
	if len(m.cache) <= m.maxSize {
		return
	}
	for k, e := range m.cache {
		select {
		case <-e.done:
			delete(m.cache, k)
		default:
		}
		if len(m.cache) <= m.maxSize/2 {
			return
		}
	}
}

// get returns compute(args): the cached result, waiting for it while another
// caller computes it, or computed here (and cached) on a miss.
func (m *memo[A, R]) get(k [32]byte, args A) R {
	m.mu.Lock()
	e, exists := m.cache[k]
	if exists {
		m.hits.Inc()
		m.mu.Unlock()
		<-e.done
		return e.val
	}
	e = &memoEntry[R]{done: make(chan struct{})}
	m.insertLocked(k, e)
	m.mu.Unlock()
	e.val = m.compute(args)
	close(e.done)
	return e.val
}
