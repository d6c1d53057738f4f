// Package wal is the write-ahead log behind the lock-free serving path:
// an append-only redo log of tuple and catalog mutations, one CRC-checked
// frame (internal/frame) per record, with group commit (one fsync absorbs every
// commit that arrived while the previous fsync was in flight) and
// replay-on-open recovery.
//
// The engine's commit protocol (see internal/engine) writes each
// statement's records under its commit sequence number (CSN), then appends
// a commit record and calls Commit, which batches the fsync. Recovery
// replays the longest valid prefix of the log: a torn or corrupt frame ends
// the prefix, so a crash mid-append can lose the uncommitted tail but never
// yields a half-applied record — prefix consistency is the contract.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"tensorbase/internal/fault"
	"tensorbase/internal/frame"
)

// Fault points, in the order a record travels through the log. Tests
// schedule crashes and corruption here (see internal/fault).
const (
	FPAppend   = "wal.append"   // before the frame is written
	FPFrame    = "wal.frame"    // corrupts the encoded frame bytes
	FPSync     = "wal.sync"     // before the group-commit fsync
	FPReplay   = "wal.replay"   // before each frame is decoded at replay
	FPTruncate = "wal.truncate" // before the checkpoint truncation
)

// FaultPoints lists every fault point the log visits, in order — the crash
// matrix iterates it so a new step cannot be added without coverage.
var FaultPoints = []string{FPAppend, FPFrame, FPSync, FPReplay, FPTruncate}

// RecType discriminates log records.
type RecType uint8

const (
	// RecInsert is one tuple appended to a table, carrying the encoded
	// tuple payload (without the heap's MVCC version header — the CSN in
	// the record is the version).
	RecInsert RecType = 1
	// RecCommit marks every record of its CSN durable and atomic: replay
	// applies a CSN's records only if its commit record is in the prefix.
	RecCommit RecType = 2
	// RecCreateTable records a new table and its schema.
	RecCreateTable RecType = 3
	// RecDropTable records a table drop.
	RecDropTable RecType = 4
	// RecLoadModel records a model registration. Data carries the model's
	// block manifest (TBMF); the weight blocks themselves ride as RecBlock
	// records in the same commit group (File is the legacy pre-blockstore
	// weight-file path, kept for old logs).
	RecLoadModel RecType = 5
	// RecBlock carries one content-addressed weight block's raw payload
	// (little-endian f32 bytes, at most 64 KiB). Blocks are staged into
	// the block store at replay; the manifest in the group's RecLoadModel
	// references them by content hash.
	RecBlock RecType = 6
	// RecDropModel records a model drop; the model's block references are
	// released and unshared blocks are reclaimed.
	RecDropModel RecType = 7
)

// Col is a schema column inside a RecCreateTable record.
type Col struct {
	Name string
	Type uint8
}

// Record is one logical WAL record (a union over the record types; unused
// fields are zero).
type Record struct {
	Type  RecType
	CSN   uint64
	Table string // Insert, CreateTable, DropTable
	Data  []byte // Insert: tuple payload; LoadModel: manifest; Block: payload
	Cols  []Col  // CreateTable
	Model string // LoadModel, DropModel
	File  string // LoadModel: legacy model weight file path
	Acc   float64
}

// Stats are the log's cumulative counters, exported as metrics: Commits
// per Sync is the group-commit occupancy.
type Stats struct {
	Appends   uint64 // records appended
	Bytes     uint64 // bytes appended (frames, including headers)
	Syncs     uint64 // fsyncs issued
	SyncWaits uint64 // commits that rode another commit's fsync
	Commits   uint64 // commit records made durable
	Replayed  uint64 // records decoded during Replay
	Truncates uint64 // checkpoint truncations
}

// maxFrame bounds one record, the payload of one frame (type | CSN |
// type-specific fields): a tuple is at most a 32KiB page, schemas and names
// are tiny. Anything larger in the length field is damage.
const maxFrame = 1 << 20

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log closed")

// Log is the append-only redo log. Append/Commit are safe for concurrent
// use; Truncate requires the caller to have quiesced writers (the engine's
// checkpoint holds every table lock).
type Log struct {
	mu     sync.Mutex // serialises appends and file-offset state
	f      *os.File
	path   string
	faults *fault.Injector
	closed bool
	// appendLSN is the byte offset past the last appended frame; broken is
	// set when a failed append could not be rolled back, poisoning the log.
	appendLSN uint64
	broken    error

	// Group commit: the first committer through becomes the leader and
	// fsyncs everything appended so far; commits arriving while the fsync
	// is in flight wait and are covered by the next leader's fsync.
	syncMu    sync.Mutex
	syncCond  *sync.Cond
	syncedLSN uint64
	syncing   bool
	// syncDelay widens the leader's batching window (tests only).
	syncDelay time.Duration

	appends   atomic.Uint64
	bytes     atomic.Uint64
	syncs     atomic.Uint64
	syncWaits atomic.Uint64
	commits   atomic.Uint64
	replayed  atomic.Uint64
	truncates atomic.Uint64
}

// Open opens (creating if absent) the log at path and truncates any torn
// tail left by a crash, so the log ends at the last whole valid frame.
// The injector may be nil.
func Open(path string, inj *fault.Injector) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: opening %s: %w", path, err)
	}
	l := &Log{f: f, path: path, faults: inj}
	l.syncCond = sync.NewCond(&l.syncMu)
	valid, err := l.scan(nil)
	if err != nil {
		f.Close()
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: stat %s: %w", path, err)
	}
	if uint64(st.Size()) > valid {
		// Torn tail from a crash mid-append: cut it so future appends
		// always extend a valid prefix.
		if err := f.Truncate(int64(valid)); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: truncating torn tail of %s: %w", path, err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: syncing %s: %w", path, err)
		}
	}
	if _, err := f.Seek(int64(valid), io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: seeking %s: %w", path, err)
	}
	l.appendLSN = valid
	l.syncedLSN = valid
	return l, nil
}

// scan reads the log from the start, passing each record to fn (if
// non-nil), and returns the byte length of the longest prefix of whole,
// CRC-valid, well-formed frames. Damage or a torn frame ends the prefix;
// any other read error, or an error from fn, is returned.
func (l *Log) scan(fn func(*Record) error) (uint64, error) {
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		return 0, fmt.Errorf("wal: seeking %s: %w", l.path, err)
	}
	r := bufio.NewReader(l.f)
	var valid uint64
	for {
		payload, err := frame.Read(r, maxFrame)
		if err == io.EOF || err == io.ErrUnexpectedEOF || errors.Is(err, frame.ErrBroken) {
			return valid, nil
		}
		if err != nil {
			return valid, fmt.Errorf("wal: reading %s: %w", l.path, err)
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			return valid, nil // structurally invalid record
		}
		if fn != nil {
			if err := fn(rec); err != nil {
				return valid, err
			}
		}
		valid += uint64(frame.Overhead + len(payload))
	}
}

// Replay streams every record in the valid prefix, in append order, to fn.
// It is called once at recovery, before any concurrent use of the log.
func (l *Log) Replay(fn func(*Record) error) error {
	defer l.f.Seek(int64(l.appendLSN), io.SeekStart)
	valid, err := l.scan(func(rec *Record) error {
		if err := l.faults.Check(FPReplay); err != nil {
			return err
		}
		l.replayed.Add(1)
		return fn(rec)
	})
	if err == nil && valid != l.appendLSN {
		err = fmt.Errorf("wal: replay ended at byte %d inside the %d-byte valid prefix", valid, l.appendLSN)
	}
	return err
}

// Append encodes rec as one frame and writes it at the log tail, returning
// the LSN (byte offset) past the frame — the argument for Sync. The frame
// is in the OS page cache only; it is durable after Sync covers its LSN.
func (l *Log) Append(rec *Record) (uint64, error) {
	payload := encodeRecord(rec)
	buf := frame.Append(make([]byte, 0, frame.Overhead+len(payload)), payload)

	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if l.broken != nil {
		return 0, l.broken
	}
	if err := l.faults.Check(FPAppend); err != nil {
		return 0, err
	}
	// Corruption scheduled here damages the frame in flight — recovery must
	// stop at it, proving the CRC framing catches torn/bit-rotted appends.
	if err := l.faults.CheckData(FPFrame, buf); err != nil {
		return 0, err
	}
	n, err := l.f.Write(buf)
	if err != nil || n != len(buf) {
		// Roll the file back to the last whole frame so later appends do
		// not land after garbage; if that fails the log is unusable.
		if terr := l.f.Truncate(int64(l.appendLSN)); terr != nil {
			l.broken = fmt.Errorf("wal: append failed and tail rollback failed: %v (append: %v)", terr, err)
		} else {
			l.f.Seek(int64(l.appendLSN), io.SeekStart)
		}
		if err == nil {
			err = io.ErrShortWrite
		}
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	l.appendLSN += uint64(len(buf))
	l.appends.Add(1)
	l.bytes.Add(uint64(len(buf)))
	return l.appendLSN, nil
}

// Sync makes every frame up to lsn durable. Concurrent callers batch: one
// becomes the leader and fsyncs the whole appended tail; the rest wait and
// usually find their LSN covered when the leader finishes (group commit).
func (l *Log) Sync(lsn uint64) error {
	l.syncMu.Lock()
	waited := false
	for {
		if l.syncedLSN >= lsn {
			l.syncMu.Unlock()
			if waited {
				l.syncWaits.Add(1)
			}
			return nil
		}
		if !l.syncing {
			break // become the leader
		}
		waited = true
		l.syncCond.Wait()
	}
	l.syncing = true
	l.syncMu.Unlock()

	if l.syncDelay > 0 {
		time.Sleep(l.syncDelay) // widen the batching window (tests)
	}
	l.mu.Lock()
	target := l.appendLSN
	closed := l.closed
	faults := l.faults
	l.mu.Unlock()
	var err error
	if closed {
		err = ErrClosed
	} else if err = faults.Check(FPSync); err == nil {
		err = l.f.Sync()
	}

	l.syncMu.Lock()
	l.syncing = false
	if err == nil {
		if target > l.syncedLSN {
			l.syncedLSN = target
		}
		l.syncs.Add(1)
	}
	l.syncCond.Broadcast()
	l.syncMu.Unlock()
	if err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	// A failed leader ahead of us may have left our LSN uncovered even
	// though our fsync succeeded; loop via recursion is unnecessary — our
	// fsync covered appendLSN ≥ lsn by definition.
	return nil
}

// Commit appends a commit record for csn and group-syncs it: when Commit
// returns nil, every record of csn is durable.
func (l *Log) Commit(csn uint64) error {
	lsn, err := l.Append(&Record{Type: RecCommit, CSN: csn})
	if err != nil {
		return err
	}
	if err := l.Sync(lsn); err != nil {
		return err
	}
	l.commits.Add(1)
	return nil
}

// Truncate discards the whole log — called by the checkpoint after the
// catalog meta rename committed everything the log described. The caller
// must have quiesced appenders.
func (l *Log) Truncate() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if err := l.faults.Check(FPTruncate); err != nil {
		return err
	}
	if err := l.f.Truncate(0); err != nil {
		return fmt.Errorf("wal: truncate: %w", err)
	}
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("wal: truncate seek: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: truncate sync: %w", err)
	}
	l.appendLSN = 0
	l.broken = nil
	l.syncMu.Lock()
	l.syncedLSN = 0
	l.syncMu.Unlock()
	l.truncates.Add(1)
	return nil
}

// SetFaults installs a fault injector on the log's append/sync/replay
// paths after Open (tests only); pass the injector to Open instead to also
// cover recovery.
func (l *Log) SetFaults(inj *fault.Injector) {
	l.mu.Lock()
	l.faults = inj
	l.mu.Unlock()
}

// Size returns the current log length in bytes (the checkpointer's
// size-trigger input).
func (l *Log) Size() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appendLSN
}

// Stats returns a snapshot of the log's counters.
func (l *Log) Stats() Stats {
	return Stats{
		Appends:   l.appends.Load(),
		Bytes:     l.bytes.Load(),
		Syncs:     l.syncs.Load(),
		SyncWaits: l.syncWaits.Load(),
		Commits:   l.commits.Load(),
		Replayed:  l.replayed.Load(),
		Truncates: l.truncates.Load(),
	}
}

// Close syncs and closes the log file.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	err := l.f.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.syncCond.Broadcast()
	return err
}

// Abandon closes the log file WITHOUT syncing — the crash tests' stand-in
// for a process kill: whatever the OS had not persisted is lost.
func (l *Log) Abandon() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	err := l.f.Close()
	l.syncCond.Broadcast()
	return err
}

// --- record encoding ---

// EncodeRecord serialises r into the payload bytes the log frames — the
// replication stream reuses it so replicas ship and replay the exact WAL
// record format.
func EncodeRecord(r *Record) []byte { return encodeRecord(r) }

// DecodeRecord parses a payload produced by EncodeRecord. It validates
// structure fully (field bounds, trailing bytes), so it is safe on
// untrusted wire input once the caller has checked the frame CRC.
func DecodeRecord(b []byte) (*Record, error) { return decodeRecord(b) }

func encodeRecord(r *Record) []byte {
	b := make([]byte, 0, 16+len(r.Table)+len(r.Data)+len(r.Model)+len(r.File))
	b = append(b, byte(r.Type))
	b = binary.LittleEndian.AppendUint64(b, r.CSN)
	switch r.Type {
	case RecInsert:
		b = frame.AppendBytes(frame.AppendBytes(b, []byte(r.Table)), r.Data)
	case RecCommit:
	case RecCreateTable:
		b = frame.AppendBytes(b, []byte(r.Table))
		b = binary.AppendUvarint(b, uint64(len(r.Cols)))
		for _, c := range r.Cols {
			b = append(frame.AppendBytes(b, []byte(c.Name)), c.Type)
		}
	case RecDropTable:
		b = frame.AppendBytes(b, []byte(r.Table))
	case RecLoadModel:
		b = frame.AppendBytes(frame.AppendBytes(b, []byte(r.Model)), []byte(r.File))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(r.Acc))
		b = frame.AppendBytes(b, r.Data)
	case RecBlock:
		b = frame.AppendBytes(b, r.Data)
	case RecDropModel:
		b = frame.AppendBytes(b, []byte(r.Model))
	}
	return b
}

func decodeRecord(b []byte) (*Record, error) {
	if len(b) < 9 {
		return nil, errors.New("wal: record shorter than header")
	}
	r := &Record{Type: RecType(b[0]), CSN: binary.LittleEndian.Uint64(b[1:9])}
	b = b[9:]
	var name, data []byte
	var err error
	switch r.Type {
	case RecInsert:
		if name, b, err = frame.ReadBytes(b); err == nil {
			data, b, err = frame.ReadBytes(b)
		}
		r.Table, r.Data = string(name), append([]byte(nil), data...)
	case RecCommit:
	case RecCreateTable:
		var n uint64
		if name, b, err = frame.ReadBytes(b); err == nil {
			n, b, err = frame.ReadUvarint(b)
		}
		if err == nil && n > 1<<16 {
			err = errors.New("wal: bad column count")
		}
		r.Table = string(name)
		for i := uint64(0); err == nil && i < n; i++ {
			var col []byte
			if col, b, err = frame.ReadBytes(b); err == nil && len(b) == 0 {
				err = errors.New("wal: truncated column type")
			}
			if err == nil {
				r.Cols = append(r.Cols, Col{Name: string(col), Type: b[0]})
				b = b[1:]
			}
		}
	case RecDropTable:
		name, b, err = frame.ReadBytes(b)
		r.Table = string(name)
	case RecLoadModel:
		var file []byte
		if name, b, err = frame.ReadBytes(b); err == nil {
			file, b, err = frame.ReadBytes(b)
		}
		if err == nil && len(b) < 8 {
			err = errors.New("wal: truncated model record")
		}
		if err != nil {
			return nil, err
		}
		r.Model, r.File = string(name), string(file)
		r.Acc = math.Float64frombits(binary.LittleEndian.Uint64(b))
		// The trailing manifest is absent in records from pre-blockstore
		// logs; tolerate both forms.
		if b = b[8:]; len(b) > 0 {
			data, b, err = frame.ReadBytes(b)
			r.Data = append([]byte(nil), data...)
		}
	case RecBlock:
		data, b, err = frame.ReadBytes(b)
		if err == nil && (len(data) == 0 || len(data) > 1<<17) {
			err = errors.New("wal: bad block payload")
		}
		r.Data = append([]byte(nil), data...)
	case RecDropModel:
		name, b, err = frame.ReadBytes(b)
		r.Model = string(name)
	default:
		return nil, fmt.Errorf("wal: unknown record type %d", r.Type)
	}
	if err != nil {
		return nil, err
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("wal: %d trailing bytes in record", len(b))
	}
	return r, nil
}
