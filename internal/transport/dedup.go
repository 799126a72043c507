package transport

import "sync"

// dedupWindow is how many completed exchanges a server remembers for
// duplicate suppression: a retried delivery within it returns the
// original reply instead of re-executing a non-idempotent dispatch.
const dedupWindow = 1024

// dedupCache suppresses re-execution of retried requests. A client that
// times out in the "read" stage retries, but the server may have
// executed (or still be executing) the first delivery — replaying a
// dispatch would schedule the same task twice. The first delivery claims
// its key and executes; duplicates wait on the claim and receive the
// original's reply; once an entry completes it stays cached until
// evicted FIFO, so late retries get the remembered reply instead of a
// second execution.
type dedupCache struct {
	limit int

	mu      sync.Mutex
	entries map[dedupKey]*dedupEntry
	order   []dedupKey // completed keys, oldest first
}

// dedupKey identifies one logical delivery. The grid-wide ReqID alone is
// not enough: the same request legitimately reaches one node twice under
// different dispatch modes (forwarded for discovery, then submitted
// directly by the head's fallback), and those are different operations —
// only a retry of the *same* operation is a duplicate.
type dedupKey struct {
	id   uint64
	mode string
}

// dedupEntry is one claimed request. done is closed when the primary
// delivery finishes and reply is set; duplicates wait on done.
type dedupEntry struct {
	done  chan struct{}
	reply interface{}
}

func newDedupCache(limit int) *dedupCache {
	return &dedupCache{limit: limit, entries: map[dedupKey]*dedupEntry{}}
}

// claim registers a key. The first caller gets primary=true and must
// call finish with the reply; later callers get the primary's entry and
// wait on its done channel.
func (d *dedupCache) claim(k dedupKey) (e *dedupEntry, primary bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if e, ok := d.entries[k]; ok {
		return e, false
	}
	e = &dedupEntry{done: make(chan struct{})}
	d.entries[k] = e
	return e, true
}

// finish publishes the primary's reply to waiting duplicates and
// remembers it for late retries, evicting the oldest completed entries
// beyond the window. In-flight entries are never evicted — they are not
// in order yet.
func (d *dedupCache) finish(k dedupKey, e *dedupEntry, reply interface{}) {
	e.reply = reply
	close(e.done)
	d.mu.Lock()
	defer d.mu.Unlock()
	d.order = append(d.order, k)
	for len(d.order) > d.limit {
		delete(d.entries, d.order[0])
		d.order = d.order[1:]
	}
}
