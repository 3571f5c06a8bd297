package executor

// SkeletonCache: the carrier of count-skeleton validation work across
// plans. Two scopes exist:
//
//   - per-re-optimization (NewSkeletonCache): unbounded, because one
//     query's subtrees are few and the cache dies with the
//     re-optimization;
//   - workload-level (NewSkeletonCacheLRU / NewSkeletonCacheBudget):
//     shared across queries of a catalog, bounded by an entry budget
//     and optionally by a materialized-value budget with
//     least-recently-used eviction, and namespaced by a key prefix (the
//     catalog's sample epoch) so refreshed samples never serve counts
//     observed on their predecessors.
//
// A SkeletonCache value is a *view*: an immutable key prefix over a
// shared, mutex-guarded store. WithPrefix derives a new view over the
// same store, so concurrent runs that need different namespaces (e.g.
// one workload cache serving two catalogs) each hold their own view and
// never race on the prefix — entries land under the epoch of the run
// that computed them, always.
//
// Entries are keyed by the subtree's canonical signature (relation set
// plus every predicate applied within it) *and* its boundary-column
// set. The signature alone identifies the logical sub-result's count,
// but the materialized columns depend on which columns enclosing joins
// may probe — a property of the whole query, not the subtree — so two
// queries sharing a subtree but joining it differently must not share
// the materialization. Build-side hash tables are registered under the
// sub-result they index; evicting a sub-result evicts its tables.

import (
	"container/list"
	"sync"

	"reopt/internal/rel"
	"reopt/internal/sql"
	"reopt/internal/storage"
)

// SkeletonCache carries validation work across skeleton runs: subtree
// sub-results and build-side hash tables, keyed so that two plans'
// subtrees share an entry exactly when they compute the same logical
// sub-result with the same boundary columns over the same samples. It
// is a cheap view (immutable prefix + shared store); all methods are
// safe for concurrent use.
type SkeletonCache struct {
	store  *skelStore
	prefix string
}

// skelStore is the shared, mutex-guarded state behind every view.
type skelStore struct {
	mu    sync.Mutex
	limit int // max sub-result entries; 0 = unbounded
	// valueLimit bounds the total number of *materialized boundary-column
	// values* retained across all entries (0 = unbounded). The entry
	// limit alone cannot bound memory on skewed workloads: a few huge
	// subtrees (a cross-product-ish join whose boundary columns carry
	// hundreds of thousands of values) can dominate while the entry count
	// stays tiny. Eviction is least-recently-used under both budgets, so
	// an entry that alone exceeds the value budget is simply not retained.
	valueLimit int
	values     int // current total materialized values (see entryValues)
	subs       map[string]*list.Element
	lru        *list.List // front = most recently used
	tables     map[string]*hashTable
	// templates is the (template, constant-vector) sub-result index
	// (DESIGN.md §9): fingerprint -> collision chain of template
	// entries, each riding one cached sub-result. A lookup that misses
	// the exact sub-result key can still find a cached instance of the
	// same template whose constants *contain* the requested ones and
	// refine it instead of rescanning. Entries are registered only when
	// template sharing is on and are evicted with their sub-result.
	templates map[uint64][]*tmplEntry

	hits, misses         int64
	tmplHits, tmplMisses int64
}

// tmplCached is the immutable payload of one template-index entry: the
// instance's constant vector and operators (for the containment check),
// the cached sub-result it refines from, and the filter columns
// gathered at that sub-result's selection (what refinement evaluates
// the contained instance's conjuncts over). All fields are write-once:
// lookups snapshot the pointer under the store lock and refine outside
// it.
type tmplCached struct {
	sig    string
	consts []rel.Value
	ops    []sql.CompareOp
	sub    *subResult
	fcols  []*storage.ColData
}

// tmplEntry is tmplCached plus its index bookkeeping: the view prefix
// it was registered under (template identity is namespaced by sample
// epoch exactly like sub-result keys) and the sub-result entry key it
// rides (joint eviction).
type tmplEntry struct {
	tmplCached
	fp     uint64
	prefix string
	key    string
}

// tmplValues is the value-budget charge of a template entry's gathered
// filter columns: one value per (row, filter column), matching how
// entryValues charges boundary columns.
func tmplValues(te *tmplEntry) int {
	return te.sub.count * len(te.fcols)
}

// skelCacheEntry is one cached sub-result plus the keys of the hash
// tables built over it (dropped together on eviction).
type skelCacheEntry struct {
	key       string
	sub       *subResult
	tableKeys []string
	// tmpl is the template-index entry riding this sub-result, if any
	// (at most one: the sub-result key pins the constants, so one entry
	// is one template instance). Dropped together on eviction.
	tmpl *tmplEntry
}

// NewSkeletonCache returns an empty, unbounded cache (the
// per-re-optimization scope).
func NewSkeletonCache() *SkeletonCache { return NewSkeletonCacheLRU(0) }

// NewSkeletonCacheLRU returns an empty cache that holds at most limit
// sub-results, evicting least-recently-used entries (and the hash
// tables built over them) beyond that; limit <= 0 means unbounded.
func NewSkeletonCacheLRU(limit int) *SkeletonCache {
	return NewSkeletonCacheBudget(limit, 0)
}

// NewSkeletonCacheBudget returns an empty cache bounded by both an entry
// count and a total materialized-value budget (either <= 0 means that
// budget is unbounded). The value budget counts every boundary-column
// value held by cached sub-results — the dominant retained memory — so
// skewed workloads where a few huge subtrees dominate stay within it
// even when the entry count would not. Build-side hash tables are not
// charged: they hold int32 row indices over those same sub-results and
// are evicted with them.
func NewSkeletonCacheBudget(limit, valueLimit int) *SkeletonCache {
	if limit < 0 {
		limit = 0
	}
	if valueLimit < 0 {
		valueLimit = 0
	}
	return &SkeletonCache{store: &skelStore{
		limit:      limit,
		valueLimit: valueLimit,
		subs:       make(map[string]*list.Element),
		lru:        list.New(),
		tables:     make(map[string]*hashTable),
		templates:  make(map[uint64][]*tmplEntry),
	}}
}

// WithPrefix derives a view over the same store whose keys are
// namespaced by p. Callers that share one store across sample sets
// (sampling.WorkloadCache) take a view per run, prefixed with the
// catalog's sample epoch; entries built under other prefixes are
// unreachable through this view and age out of the LRU. Views are
// values: deriving one never mutates shared state, so concurrent runs
// with different prefixes cannot contaminate each other's namespaces.
func (c *SkeletonCache) WithPrefix(p string) *SkeletonCache {
	if c == nil {
		return nil
	}
	if p == c.prefix {
		return c
	}
	return &SkeletonCache{store: c.store, prefix: p}
}

// entryValues is the value-budget charge for one sub-result: its
// materialized boundary-column values, floored at 1 so zero-column
// entries still consume budget and eviction always makes progress.
func entryValues(sub *subResult) int {
	n := sub.count * len(sub.cols)
	if n < 1 {
		n = 1
	}
	return n
}

// Len returns the number of cached sub-results (diagnostics).
func (c *SkeletonCache) Len() int {
	if c == nil {
		return 0
	}
	s := c.store
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.subs)
}

// Stats reports sub-result lookup hits and misses (diagnostics).
func (c *SkeletonCache) Stats() (hits, misses int64) {
	if c == nil {
		return 0, 0
	}
	s := c.store
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hits, s.misses
}

// Values returns the total materialized boundary-column values currently
// retained (the quantity the value budget bounds; diagnostics).
func (c *SkeletonCache) Values() int {
	if c == nil {
		return 0
	}
	s := c.store
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.values
}

// appendRefs appends the canonical rendering of a boundary-column set.
// It is the single source of that format: subKey (cache keys) and the
// batch engine's dedupe keys must serialize refs byte-identically, or
// task dedup and cache lookup would silently diverge.
func appendRefs(b []byte, refs []sql.ColRef) []byte {
	b = append(b, "|B:"...)
	for _, r := range refs {
		b = append(b, r.Table...)
		b = append(b, '.')
		b = append(b, r.Column...)
		b = append(b, ',')
	}
	return b
}

// subKey builds the cache key for a subtree: prefix (sample epoch
// namespace), canonical signature, and the boundary-column set the
// enclosing query requires of it. The prefix is immutable per view, so
// no locking is needed.
func (c *SkeletonCache) subKey(sig string, refs []sql.ColRef) string {
	n := len(c.prefix) + len(sig) + 3
	for _, r := range refs {
		n += len(r.Table) + len(r.Column) + 2
	}
	b := make([]byte, 0, n)
	b = append(b, c.prefix...)
	b = append(b, sig...)
	return string(appendRefs(b, refs))
}

// getSub looks a sub-result up, refreshing its recency on a hit.
func (c *SkeletonCache) getSub(key string) (*subResult, bool) {
	s := c.store
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.subs[key]
	if !ok {
		s.misses++
		return nil, false
	}
	s.hits++
	s.lru.MoveToFront(el)
	return el.Value.(*skelCacheEntry).sub, true
}

// putSub inserts (or refreshes) a sub-result, evicting the
// least-recently-used entries beyond the entry and value budgets. A
// sub-result whose values alone exceed the value budget is declined up
// front, before touching the LRU: inserting it first would evict every
// smaller entry ahead of the oversized one, wiping the cache for an
// entry that could never be retained anyway. (Keys are
// content-addressed, so if the key is already cached its sub-result is
// logically identical — declining the refresh loses nothing.)
func (c *SkeletonCache) putSub(key string, sub *subResult) {
	s := c.store
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.valueLimit > 0 && entryValues(sub) > s.valueLimit {
		return
	}
	if el, ok := s.subs[key]; ok {
		e := el.Value.(*skelCacheEntry)
		s.values += entryValues(sub) - entryValues(e.sub)
		e.sub = sub
		s.lru.MoveToFront(el)
		s.shrinkLocked()
		return
	}
	s.subs[key] = s.lru.PushFront(&skelCacheEntry{key: key, sub: sub})
	s.values += entryValues(sub)
	s.shrinkLocked()
}

// shrinkLocked evicts least-recently-used entries until both budgets
// hold (or the cache is empty).
func (s *skelStore) shrinkLocked() {
	for (s.limit > 0 && len(s.subs) > s.limit) ||
		(s.valueLimit > 0 && s.values > s.valueLimit) {
		oldest := s.lru.Back()
		if oldest == nil {
			break
		}
		s.evictLocked(oldest)
	}
}

// evictLocked removes one entry, the hash tables built over it, and its
// template-index entry.
func (s *skelStore) evictLocked(el *list.Element) {
	e := el.Value.(*skelCacheEntry)
	s.lru.Remove(el)
	delete(s.subs, e.key)
	s.values -= entryValues(e.sub)
	for _, tk := range e.tableKeys {
		delete(s.tables, tk)
	}
	if e.tmpl != nil {
		s.dropTemplateLocked(e.tmpl)
		e.tmpl = nil
	}
}

// dropTemplateLocked unlinks one template entry from the fingerprint
// index and refunds its value charge. The owning skelCacheEntry's tmpl
// field is the caller's to clear.
func (s *skelStore) dropTemplateLocked(te *tmplEntry) {
	chain := s.templates[te.fp]
	for i, c := range chain {
		if c == te {
			chain = append(chain[:i], chain[i+1:]...)
			break
		}
	}
	if len(chain) == 0 {
		delete(s.templates, te.fp)
	} else {
		s.templates[te.fp] = chain
	}
	s.values -= tmplValues(te)
}

// getTable looks up a build-side hash table.
func (c *SkeletonCache) getTable(key string) *hashTable {
	s := c.store
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tables[key]
}

// putTable caches a hash table, registering it under the sub-result it
// indexes (subKey) so the two are evicted together. If that sub-result
// is no longer cached — possible under a tight budget — the table is
// not cached either, since nothing would ever evict it.
func (c *SkeletonCache) putTable(subKey, tableKey string, t *hashTable) {
	s := c.store
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.subs[subKey]
	if !ok {
		return
	}
	e := el.Value.(*skelCacheEntry)
	if _, dup := s.tables[tableKey]; !dup {
		e.tableKeys = append(e.tableKeys, tableKey)
	}
	s.tables[tableKey] = t
}

// getTemplate probes the template index for a cached instance of tm's
// template (fingerprint bucket, collision-checked against the full
// signature, namespaced by the view prefix) whose constants contain
// tm's. A hit refreshes the owning sub-result's recency and returns the
// entry's immutable payload; refinement happens outside the lock.
func (c *SkeletonCache) getTemplate(tm scanTemplate) (*tmplCached, bool) {
	s := c.store
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, te := range s.templates[tm.fp] {
		if te.prefix != c.prefix || te.sig != tm.sig {
			continue // fingerprint collision or foreign epoch
		}
		if !containsConsts(tm.ops, te.consts, tm.consts) {
			break // one entry per (prefix, sig); it does not contain tm
		}
		if el, ok := s.subs[te.key]; ok {
			s.lru.MoveToFront(el)
		}
		s.tmplHits++
		return &te.tmplCached, true
	}
	s.tmplMisses++
	return nil, false
}

// putTemplate registers a computed scan instance in the template index,
// riding the sub-result cached under key (the entry is skipped when
// that sub-result was not retained — nothing would ever evict it). At
// most one entry exists per (prefix, signature): an existing entry
// whose constants contain the new instance's is kept (it already
// refines every instance the new one could), otherwise the new entry
// replaces it — so under containment-ordered traffic the index
// converges on the loosest instance seen. fcols are the filter columns
// gathered at the sub-result's selection; their values are charged to
// the store's value budget like boundary columns.
func (c *SkeletonCache) putTemplate(key string, tm scanTemplate, sub *subResult, fcols []*storage.ColData) {
	s := c.store
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.subs[key]
	if !ok {
		return
	}
	e := el.Value.(*skelCacheEntry)
	te := &tmplEntry{
		tmplCached: tmplCached{sig: tm.sig, consts: tm.consts, ops: tm.ops, sub: sub, fcols: fcols},
		fp:         tm.fp,
		prefix:     c.prefix,
		key:        key,
	}
	if s.valueLimit > 0 && tmplValues(te) > s.valueLimit {
		return // could never be retained; don't wipe the cache for it
	}
	for _, old := range s.templates[tm.fp] {
		if old.prefix != c.prefix || old.sig != tm.sig {
			continue
		}
		if containsConsts(tm.ops, old.consts, tm.consts) {
			return // existing entry already refines everything te could
		}
		if oel, ok := s.subs[old.key]; ok {
			oel.Value.(*skelCacheEntry).tmpl = nil
		}
		s.dropTemplateLocked(old)
		break
	}
	if e.tmpl != nil {
		// The sub-result under key was re-put and already carries an
		// entry (content-addressed: logically the same instance).
		s.dropTemplateLocked(e.tmpl)
	}
	e.tmpl = te
	s.templates[tm.fp] = append(s.templates[tm.fp], te)
	s.values += tmplValues(te)
	s.shrinkLocked()
}

// TemplateStats reports template-index lookup hits and misses
// (diagnostics; only template-sharing runs touch the index).
func (c *SkeletonCache) TemplateStats() (hits, misses int64) {
	if c == nil {
		return 0, 0
	}
	s := c.store
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tmplHits, s.tmplMisses
}
