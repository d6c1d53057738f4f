package table

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"tensorbase/internal/lifecycle"
	"tensorbase/internal/storage"
)

// RID identifies a record: page + slot.
type RID struct {
	Page storage.PageID
	Slot int
}

// MVCC version header. Every stored record is prefixed with two
// little-endian uint64s: the commit sequence number (CSN) that created the
// row and the CSN that deleted it. A snapshot pinned at CSN s sees a row
// iff created ≤ s < deleted. Two sentinels keep the scheme zero-cost for
// non-transactional users:
//
//   - created == 0 ("always") marks a row visible to every snapshot — the
//     stamp plain Insert/InsertRecord writes, so direct heap users (spill
//     runs, tensor block stores, tests) never think about versions;
//   - deleted == CSNMax ("never") marks a live row.
//
// Rows are only ever stamped by the engine's commit protocol (InsertAt) or
// physically removed (Rollback, for aborted statements), so a committed
// row's header never changes after publication.
const (
	versionHdrSize = 16
	// CSNAlways marks a record visible to every snapshot.
	CSNAlways = uint64(0)
	// CSNMax is the "latest" snapshot: it sees every non-deleted row.
	CSNMax = ^uint64(0)
)

// visibleAt reports whether the version-prefixed record rec is visible to a
// snapshot pinned at snap.
func visibleAt(rec []byte, snap uint64) (bool, error) {
	if len(rec) < versionHdrSize {
		return false, fmt.Errorf("table: %d-byte record shorter than version header", len(rec))
	}
	created := binary.LittleEndian.Uint64(rec)
	deleted := binary.LittleEndian.Uint64(rec[8:])
	return created <= snap && (deleted == CSNMax || snap < deleted), nil
}

// payload strips the version header off a stored record.
func payload(rec []byte) ([]byte, error) {
	if len(rec) < versionHdrSize {
		return nil, fmt.Errorf("table: %d-byte record shorter than version header", len(rec))
	}
	return rec[versionHdrSize:], nil
}

// MaxTupleSize is the largest encoded tuple a heap accepts: a page record
// minus the version header.
const MaxTupleSize = storage.MaxRecordSize - versionHdrSize

// Heap is an unordered collection of tuples stored as a chain of slotted
// pages in the buffer pool. Large tuples are rejected rather than
// overflow-chained; tensor blocks are sized by the caller to fit a page.
//
// Latching contract: the heap carries one reader/writer latch. Insert and
// InsertRecord take it exclusively — they mutate the tail page's bytes, the
// chain pointers, and the row count, so writers serialise. Get, GetInto,
// Scanner.Next, RIDs, and Count take it shared, so any number of readers
// runs concurrently (with each other, and with readers of other heaps on
// the same buffer pool). Page pins protect resident bytes from eviction;
// the latch is what keeps a reader from observing a half-applied insert
// into the page it is decoding. This is what lets the parallel relation-
// centric executor fan block fetches and result appends across workers.
//
// Above the latch sits the statement-scoped read gate (BeginRead/EndRead/
// Drain): since MVCC snapshot reads no longer hold table locks, DROP TABLE
// uses the gate to wait out in-flight read statements before handing the
// heap's pages to the free list.
type Heap struct {
	mu     sync.RWMutex
	pool   *storage.BufferPool
	schema *Schema
	first  storage.PageID
	last   storage.PageID
	count  int64

	// gate is held shared for the duration of a lock-free read statement
	// and exclusively by DROP TABLE before page reclamation. It orders
	// whole statements, not page accesses — that is mu's job.
	gate sync.RWMutex
}

// NewHeap creates an empty heap with one allocated page.
func NewHeap(pool *storage.BufferPool, schema *Schema) (*Heap, error) {
	f, err := pool.NewPage()
	if err != nil {
		return nil, err
	}
	id := f.ID()
	if err := pool.Unpin(id, true); err != nil {
		return nil, err
	}
	return &Heap{pool: pool, schema: schema, first: id, last: id}, nil
}

// OpenHeap re-attaches to an existing chain starting at first. The caller
// supplies the row count (tracked by the catalog).
func OpenHeap(pool *storage.BufferPool, schema *Schema, first, last storage.PageID, count int64) *Heap {
	return &Heap{pool: pool, schema: schema, first: first, last: last, count: count}
}

// Schema returns the heap's tuple schema.
func (h *Heap) Schema() *Schema { return h.schema }

// FirstPage returns the head of the page chain.
func (h *Heap) FirstPage() storage.PageID { return h.first }

// LastPage returns the tail of the page chain.
func (h *Heap) LastPage() storage.PageID {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.last
}

// Count returns the number of inserted tuples.
func (h *Heap) Count() int64 {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.count
}

// BeginRead enters the heap's statement read gate: it blocks while a DROP
// is draining readers, and DROP's reclamation blocks until every reader
// that entered has left. The engine brackets each lock-free read statement
// with BeginRead/EndRead.
func (h *Heap) BeginRead() { h.gate.RLock() }

// EndRead leaves the statement read gate.
func (h *Heap) EndRead() { h.gate.RUnlock() }

// Drain blocks until every in-flight read statement has left the gate and
// holds new ones out until Release is called. DROP TABLE drains a heap
// after unpublishing it from the catalog and before freeing its pages.
func (h *Heap) Drain() { h.gate.Lock() }

// Release reopens the gate after Drain. Readers that then enter must
// re-check the catalog: the heap they gated on may no longer be published.
func (h *Heap) Release() { h.gate.Unlock() }

// Insert appends a tuple visible to every snapshot and returns its RID,
// extending the page chain as needed. Insert is latched: concurrent
// inserters serialise, and readers never see a partially written tail page.
func (h *Heap) Insert(t Tuple) (RID, error) {
	return h.InsertAt(t, CSNAlways)
}

// InsertAt appends a tuple stamped with the creating statement's CSN: rows
// become visible only to snapshots pinned at or after csn, which the
// engine's commit protocol publishes after the WAL commit is durable.
func (h *Heap) InsertAt(t Tuple, csn uint64) (RID, error) {
	rec, err := Encode(h.schema, t)
	if err != nil {
		return RID{}, err
	}
	return h.InsertRecordAt(rec, csn)
}

// InsertRecord appends a pre-encoded record visible to every snapshot.
func (h *Heap) InsertRecord(rec []byte) (RID, error) {
	return h.InsertRecordAt(rec, CSNAlways)
}

// InsertRecordAt appends a pre-encoded record under the heap's write latch,
// stamped with csn (see InsertAt).
func (h *Heap) InsertRecordAt(rec []byte, csn uint64) (RID, error) {
	if len(rec) > MaxTupleSize {
		return RID{}, fmt.Errorf("table: record of %d bytes exceeds page capacity %d", len(rec), MaxTupleSize)
	}
	stored := make([]byte, versionHdrSize+len(rec))
	binary.LittleEndian.PutUint64(stored, csn)
	binary.LittleEndian.PutUint64(stored[8:], CSNMax)
	copy(stored[versionHdrSize:], rec)

	h.mu.Lock()
	defer h.mu.Unlock()
	f, err := h.pool.Fetch(h.last)
	if err != nil {
		return RID{}, err
	}
	page := f.Page()
	slot, err := page.Insert(stored)
	if err == nil {
		rid := RID{Page: h.last, Slot: slot}
		h.count++
		return rid, h.pool.Unpin(h.last, true)
	}
	if !errors.Is(err, storage.ErrPageFull) {
		h.pool.Unpin(h.last, false)
		return RID{}, err
	}
	// Extend the chain with a fresh page.
	nf, err := h.pool.NewPage()
	if err != nil {
		h.pool.Unpin(h.last, false)
		return RID{}, err
	}
	newID := nf.ID()
	page.SetNext(newID)
	if err := h.pool.Unpin(h.last, true); err != nil {
		h.pool.Unpin(newID, false)
		return RID{}, err
	}
	slot, err = nf.Page().Insert(stored)
	if err != nil {
		h.pool.Unpin(newID, false)
		return RID{}, err
	}
	h.last = newID
	h.count++
	return RID{Page: newID, Slot: slot}, h.pool.Unpin(newID, true)
}

// Rollback physically removes the records an aborted statement inserted
// (identified by the RIDs its inserts returned). The aborted rows were
// never visible to any snapshot — their CSN was never published — so
// deleting the slots leaves no trace beyond dead bytes on the page. Pages
// the statement appended to the chain stay in the chain, empty.
func (h *Heap) Rollback(rids []RID) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, rid := range rids {
		f, err := h.pool.Fetch(rid.Page)
		if err != nil {
			return err
		}
		deleted := f.Page().Delete(rid.Slot)
		if err := h.pool.Unpin(rid.Page, deleted); err != nil {
			return err
		}
		if deleted {
			h.count--
		}
	}
	return nil
}

// Get fetches and decodes the tuple at rid.
func (h *Heap) Get(rid RID) (Tuple, error) {
	t, _, err := h.GetInto(rid, nil, nil)
	return t, err
}

// GetInto fetches the tuple at rid decoding into the caller's reusable
// tuple header and float scratch (see DecodeInto) — the allocation-free
// fetch path the streaming block multiply's inner loop runs per k-step.
// It takes the heap's read latch, so it is safe against concurrent Insert.
func (h *Heap) GetInto(rid RID, t Tuple, scratch []float32) (Tuple, []float32, error) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	f, err := h.pool.Fetch(rid.Page)
	if err != nil {
		return nil, scratch, err
	}
	defer h.pool.Unpin(rid.Page, false)
	rec, ok, rerr := f.Record(rid.Slot)
	if rerr != nil {
		return nil, scratch, fmt.Errorf("table: record at page %d slot %d: %w", rid.Page, rid.Slot, rerr)
	}
	if !ok {
		return nil, scratch, fmt.Errorf("table: no record at page %d slot %d", rid.Page, rid.Slot)
	}
	body, err := payload(rec)
	if err != nil {
		return nil, scratch, fmt.Errorf("table: page %d slot %d: %w", rid.Page, rid.Slot, err)
	}
	return DecodeInto(h.schema, body, t, scratch)
}

// RIDs returns the record ids of every record visible to the latest
// snapshot, in scan order — the same order Scan yields tuples, so position
// n of both refers to the same row. Index builders use this to map index
// entries back to records.
func (h *Heap) RIDs() ([]RID, error) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	var out []RID
	page := h.first
	for page != storage.InvalidPageID {
		f, err := h.pool.Fetch(page)
		if err != nil {
			return nil, err
		}
		p := f.Page()
		for slot := 0; slot < p.NumSlots(); slot++ {
			rec, ok, rerr := p.Record(slot)
			if rerr != nil {
				h.pool.Unpin(page, false)
				return nil, fmt.Errorf("table: page %d slot %d: %w", page, slot, rerr)
			}
			if !ok {
				continue
			}
			vis, verr := visibleAt(rec, CSNMax)
			if verr != nil {
				h.pool.Unpin(page, false)
				return nil, fmt.Errorf("table: page %d slot %d: %w", page, slot, verr)
			}
			if vis {
				out = append(out, RID{Page: page, Slot: slot})
			}
		}
		next := p.Next()
		if err := h.pool.Unpin(page, false); err != nil {
			return nil, err
		}
		page = next
	}
	return out, nil
}

// Pages returns the heap's page chain in order, head first. DROP TABLE
// uses it to hand every page back to the storage free list.
func (h *Heap) Pages() ([]storage.PageID, error) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	var out []storage.PageID
	seen := make(map[storage.PageID]struct{})
	page := h.first
	for page != storage.InvalidPageID {
		if _, dup := seen[page]; dup {
			return nil, fmt.Errorf("table: page chain cycles at page %d", page)
		}
		seen[page] = struct{}{}
		out = append(out, page)
		f, err := h.pool.Fetch(page)
		if err != nil {
			return nil, err
		}
		next := f.Page().Next()
		if err := h.pool.Unpin(page, false); err != nil {
			return nil, err
		}
		page = next
	}
	return out, nil
}

// LastSlots returns the tail page's slot count — recorded per table by the
// checkpoint so recovery can roll the tail back to exactly this state
// before replaying the WAL.
func (h *Heap) LastSlots() (int, error) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	f, err := h.pool.Fetch(h.last)
	if err != nil {
		return 0, err
	}
	n := f.Page().NumSlots()
	return n, h.pool.Unpin(h.last, false)
}

// ResetTail rolls the heap back to the state a checkpoint recorded: the
// tail page keeps its first lastSlots slots and stops chaining, and the
// row count is restored. Recovery calls it before WAL replay so replayed
// inserts land exactly once; on a cleanly closed database it is a no-op.
func (h *Heap) ResetTail(lastSlots int, count int64) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	f, err := h.pool.Fetch(h.last)
	if err != nil {
		return err
	}
	p := f.Page()
	dirty := p.NumSlots() != lastSlots || p.Next() != storage.InvalidPageID
	if dirty {
		if err := p.TruncateSlots(lastSlots); err != nil {
			h.pool.Unpin(h.last, false)
			return err
		}
		p.SetNext(storage.InvalidPageID)
	}
	if err := h.pool.Unpin(h.last, dirty); err != nil {
		return err
	}
	h.count = count
	return nil
}

// ColPred is a one-column predicate a Scanner evaluates on each visible
// record before decoding it: only column Col is decoded and handed to Pass,
// and a record that fails is skipped inside the page walk, never decoded
// into a tuple. This is how a WHERE clause reaches the data.
type ColPred struct {
	Col  int              // index into the heap's schema
	Pass func(Value) bool // reports whether a row with this Col value is kept
	Desc string           // how query profiles render the predicate, e.g. "id = 5"
}

// match validates rec's structure as Decode would (field bounds, no
// trailing bytes) and reports whether it passes p. It allocates nothing
// unless the predicate column is a TEXT or VECTOR column.
func (p *ColPred) match(s *Schema, rec []byte) (bool, error) {
	if _, err := measureVecs(s, rec); err != nil {
		return false, err
	}
	return p.Pass(colValue(s, rec, p.Col)), nil
}

// Scanner iterates the heap front to back against a fixed snapshot CSN,
// optionally keeping only the rows a ColPred passes. It pins one page at a
// time, so scans of arbitrarily large heaps run in constant memory — the
// property the relation-centric execution path relies on.
type Scanner struct {
	heap     *Heap
	snap     uint64
	pred     *ColPred
	tok      *lifecycle.Token
	page     storage.PageID
	slot     int
	done     bool
	examined int64
}

// Scan returns a scanner positioned before the first tuple, reading the
// latest snapshot (every non-deleted row, including unpublished ones —
// callers that need isolation use ScanAt).
func (h *Heap) Scan() *Scanner {
	return h.ScanAt(CSNMax)
}

// ScanAt returns a scanner pinned to the snapshot csn: it yields exactly
// the rows committed at or before csn, regardless of concurrent writers.
// This is the lock-free read path — no table lock is needed, because a
// writer's rows carry a CSN above every pinned snapshot until its commit
// publishes them.
func (h *Heap) ScanAt(csn uint64) *Scanner {
	return h.ScanWhere(csn, nil)
}

// ScanWhere is ScanAt keeping only the rows pred passes (every row when
// pred is nil). pred.Col must index the heap's schema.
func (h *Heap) ScanWhere(csn uint64, pred *ColPred) *Scanner {
	return &Scanner{heap: h, snap: csn, pred: pred, page: h.first}
}

// SetCancel makes the scan observe tok once per page, so a selective scan
// that walks many pages within one Next call still stops when the query is
// cancelled.
func (s *Scanner) SetCancel(tok *lifecycle.Token) { s.tok = tok }

// Examined returns the number of snapshot-visible records the scan has
// visited so far, whether or not its predicate kept them.
func (s *Scanner) Examined() int64 { return s.examined }

// Next returns the next visible tuple that passes the scanner's predicate,
// or ok=false at the end. Each call holds the heap's read latch, so a scan
// interleaves safely with concurrent inserts; the snapshot CSN decides
// visibility, so rows a concurrent writer appends behind the scan position
// are skipped unless the snapshot covers them.
func (s *Scanner) Next() (Tuple, bool, error) {
	var t Tuple
	found := false
	err := s.walk(func(body []byte) (bool, error) {
		var err error
		t, err = Decode(s.heap.schema, body)
		found = err == nil
		return false, err
	})
	if err != nil || !found {
		return nil, false, err
	}
	return t, true, nil
}

// walk is the one page walk under Next and NextColumnar. From the scan
// position it skips deleted slots, records outside the snapshot and records
// the predicate rejects, and hands each remaining record's payload to emit
// until emit returns false or the heap is exhausted. The position then
// rests just past the last emitted record. Each visited page is pinned once
// per call however many records it holds, and the heap's read latch is held
// throughout.
func (s *Scanner) walk(emit func(body []byte) (more bool, err error)) error {
	s.heap.mu.RLock()
	defer s.heap.mu.RUnlock()
	for !s.done {
		if err := s.tok.Err(); err != nil {
			return err
		}
		f, err := s.heap.pool.Fetch(s.page)
		if err != nil {
			return err
		}
		page := f.Page()
		more, err := s.walkPage(page, emit)
		pageDone := s.slot >= page.NumSlots()
		next := page.Next()
		if uerr := s.heap.pool.Unpin(s.page, false); err == nil {
			err = uerr
		}
		if err != nil || !pageDone {
			return err // on !pageDone, emit stopped mid-page: resume here
		}
		if next == storage.InvalidPageID {
			s.done = true
		} else {
			s.page, s.slot = next, 0
		}
		if !more {
			return nil
		}
	}
	return nil
}

// walkPage runs walk over the records of one pinned page, reporting
// whether emit still wants more.
func (s *Scanner) walkPage(page *storage.Page, emit func([]byte) (bool, error)) (bool, error) {
	for s.slot < page.NumSlots() {
		slot := s.slot
		rec, ok, err := page.Record(slot)
		if err != nil {
			return false, fmt.Errorf("table: page %d slot %d: %w", s.page, slot, err)
		}
		s.slot++
		if !ok {
			continue // deleted
		}
		vis, err := visibleAt(rec, s.snap)
		if err != nil {
			return false, fmt.Errorf("table: page %d slot %d: %w", s.page, slot, err)
		}
		if !vis {
			continue // outside this snapshot
		}
		s.examined++
		body := rec[versionHdrSize:]
		if s.pred != nil {
			pass, err := s.pred.match(s.heap.schema, body)
			if err != nil {
				return false, fmt.Errorf("table: page %d slot %d: %w", s.page, slot, err)
			}
			if !pass {
				continue
			}
		}
		if more, err := emit(body); err != nil || !more {
			return false, err
		}
	}
	return true, nil
}
