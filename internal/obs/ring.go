package obs

import "sync"

// ring is a bounded in-memory buffer that overwrites its oldest entry once
// full and counts each overwrite as a drop: the store behind both the span
// ring and the log ring. Its buffer is allocated on first use, so an unused
// ring costs nothing.
type ring[T any] struct {
	mu      sync.Mutex
	size    int // capacity of the next allocation
	buf     []T
	next    int
	full    bool
	drops   int64
	dropped *Counter // mirrors drops into the registry
}

// pushLocked appends v: one slot write, counted as a drop when it overwrites
// an entry nobody read. The caller holds mu.
func (r *ring[T]) pushLocked(v T) {
	if r.buf == nil {
		r.buf = make([]T, r.size)
	}
	if r.full {
		r.drops++
		r.dropped.Inc()
	}
	r.buf[r.next] = v
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
}

// items returns the ring's contents, oldest first.
func (r *ring[T]) items() []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.full {
		return append([]T(nil), r.buf[:r.next]...)
	}
	return append(append(make([]T, 0, len(r.buf)), r.buf[r.next:]...), r.buf[:r.next]...)
}

// reset empties the ring; a positive size sets the capacity of its next
// allocation.
func (r *ring[T]) reset(size int) {
	r.mu.Lock()
	if size > 0 {
		r.size = size
	}
	r.buf, r.next, r.full, r.drops = nil, 0, false, 0
	r.mu.Unlock()
}

// dropCount reports how many entries were overwritten before being read.
func (r *ring[T]) dropCount() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.drops
}
