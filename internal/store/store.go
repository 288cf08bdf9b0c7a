// Package store is a persistent, content-addressed cache of simulation
// outputs. The experiment engine memoizes within a process; the store
// extends that memo across processes — and, through a shared filesystem,
// across machines — so repeated CLI invocations and sharded full-scale
// sweeps skip every grid point anyone has already simulated.
//
// Entries are addressed by the SHA-256 of a canonical description of the
// work — for simulation results the engine job key, which spells out the
// complete (workload spec, scale, mechanism, simulator config) identity;
// for miss traces the extraction key. The on-disk layout is a directory
// of append-only log files sharing one format: a magic+version header
// followed by self-delimiting records (key hash, varint-length payload,
// CRC), in the varint codec style of internal/trace. Appending never
// rewrites earlier records, so interrupted runs keep everything they
// finished.
//
// # Locking model
//
// Every log file has at most one writer, enforced with flock(2):
//
//   - The first opener of a directory takes the exclusive lock on the
//     primary log (results.tifs) and appends there — the single-process
//     fast path.
//   - Any concurrent opener (another process on a shared filesystem, or
//     another Store in this process) finds the primary locked and claims
//     a fresh per-writer segment (seg-NNNNN.tifs, created O_EXCL) for its
//     own appends instead. Interleaved appends to a shared file can never
//     happen.
//   - Readers need no lock: they load the valid prefix of the primary and
//     of every segment present at Open. Records are immutable once
//     written, so a concurrently-growing file simply yields a shorter
//     valid prefix.
//
// Segments accumulate records from sharded or crashed runs until
// Compact folds every live record back into the primary and deletes
// them; see compact.go.
//
// # Failure model
//
// All I/O goes through internal/vfs, so every error path here is
// reachable deterministically in tests. The store is defensive in
// exactly one direction: no fault may ever produce wrong numbers.
//
//   - Read-side damage — truncated tail, bad CRC, undecodable payload,
//     stale format version — degrades to a cache miss and the caller
//     re-simulates. A bumped FormatVersion discards stale files on open.
//   - Write-side faults are classified by internal/retry: transient ones
//     (EIO on a flaky NFS mount, EINTR, a torn short write) are retried
//     at the same offset under capped backoff; a permanent one (ENOSPC,
//     EROFS) degrades the store to read-only, in-memory operation with a
//     logged warning — the run completes correctly, this process keeps
//     its memo, and only persistence is lost.
//
// Results can be stale only if the simulator's semantics change without
// a version bump; bump FormatVersion in the same change that alters any
// simulated number.
package store

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"tifs/internal/retry"
	"tifs/internal/sim"
	"tifs/internal/trace"
	"tifs/internal/vfs"
)

// FormatVersion identifies the store layout AND the simulator semantics
// the cached numbers were produced under. Bump it whenever either
// changes; stores written under other versions are discarded on open.
const FormatVersion = 1

// fileName is the primary log file inside the cache directory.
const fileName = "results.tifs"

// segPattern matches per-writer segment logs. Segment numbering is
// claimed with O_EXCL, so every concurrent writer gets its own file.
const segPattern = "seg-*.tifs"

// compactTmp is the scratch file compaction builds before atomically
// renaming it over the primary. Open ignores it (it matches neither the
// primary name nor segPattern), so a crash mid-compaction leaves the
// store fully intact.
const compactTmp = "results.tifs.tmp"

// magicStr is the single source of the file magic; magic and headerLen
// derive from it so they can never drift apart.
const magicStr = "TIFSTORE"

var magic = []byte(magicStr)

// headerLen is len(magic) plus the version byte.
const headerLen = len(magicStr) + 1

// Record kinds (part of the content address).
const (
	kindResult     byte = 1
	kindMissTraces byte = 2
)

// Stats reports store activity for telemetry.
type Stats struct {
	// Hits and Misses count lookups by outcome.
	Hits, Misses uint64
	// Puts counts records appended this session.
	Puts uint64
	// Entries is the number of records currently addressable.
	Entries int
	// Segments is how many per-writer segment files were present at
	// Open (not counting the primary).
	Segments int
	// Primary reports whether this Store holds the primary log's write
	// lock; false means appends go to an owned segment file.
	Primary bool
	// ReadOnly reports that a permanent write failure (disk full,
	// read-only media) degraded the store to in-memory operation:
	// lookups and this process's memo still work, but nothing more
	// persists and the next run recomputes whatever never reached disk.
	ReadOnly bool
}

// String renders a one-line summary.
func (s Stats) String() string {
	out := fmt.Sprintf("store: hits=%d misses=%d puts=%d entries=%d",
		s.Hits, s.Misses, s.Puts, s.Entries)
	if !s.Primary {
		out += fmt.Sprintf(" (segment writer, %d segments)", s.Segments)
	}
	if s.ReadOnly {
		out += " (degraded: in-memory only)"
	}
	return out
}

// Store is a persistent result cache. It is safe for concurrent use
// within one process, and any number of Stores — in this process or
// others — may share one directory: each writes its own flock-guarded
// log file and reads everything present at Open.
type Store struct {
	fsys vfs.FS
	// Retry is the backoff policy for transient append failures. Set
	// it before the first Put; the default retries ~4 times over tens
	// of milliseconds.
	Retry retry.Policy
	// Logf receives degradation warnings (default: standard error).
	// Set it before concurrent use begins.
	Logf func(format string, args ...any)

	mu        sync.Mutex
	f         vfs.File // owned write log (primary or segment)
	path      string   // primary log path
	writePath string   // path of f
	primary   bool     // f is the primary log
	segments  int      // segment files seen at Open
	off       int64    // end of the valid, durable prefix of f
	entries   map[[sha256.Size]byte][]byte
	// readOnly latches after a permanent (or retry-exhausted) append
	// failure: entries keep serving this process from memory, nothing
	// further is written, and the next process re-simulates only what
	// never reached disk. The valid prefix of the log stays intact —
	// appends are positional (WriteAt at off), so a failed append can
	// never tear bytes into earlier records.
	readOnly bool
	closed   bool

	hits, misses, puts atomic.Uint64
}

// Open opens (creating if needed) the store in dir on the real
// filesystem. See OpenFS.
func Open(dir string) (*Store, error) { return OpenFS(dir, vfs.OS) }

// OpenFS opens the store in dir on an explicit filesystem — the fault
// seam for tests. A file written by a different FormatVersion, or with
// a corrupt tail, contributes nothing — stale or damaged state can only
// cause cache misses, never wrong results. The first opener becomes the
// primary writer; concurrent openers append to private segment files
// (see the package comment).
func OpenFS(dir string, fsys vfs.FS) (*Store, error) {
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	path := filepath.Join(dir, fileName)
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		fsys:    fsys,
		Logf:    func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) },
		path:    path,
		entries: map[[sha256.Size]byte][]byte{},
	}
	locked, err := f.TryLock()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("store: lock %s: %w", path, err)
	}
	if locked {
		// Primary writer: repair the log in place (truncate a corrupt
		// tail, re-head a stale or foreign file) and append to it.
		s.f, s.writePath, s.primary = f, path, true
		if err := s.loadPrimary(); err != nil {
			f.Close()
			return nil, err
		}
	} else {
		// Someone else is writing the primary. Read its valid prefix and
		// claim a private segment for our own appends. Never truncate or
		// re-head a file another writer owns.
		data, err := s.readFileRetry(path)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		if recs, _, ok := scanLog(data); ok {
			for _, r := range recs {
				s.entries[r.key] = r.payload
			}
		}
		if err := s.claimSegment(dir); err != nil {
			return nil, err
		}
	}
	if err := s.loadSegments(dir); err != nil {
		s.f.Close()
		return nil, err
	}
	return s, nil
}

// readFileRetry reads a whole file, riding out transient faults.
func (s *Store) readFileRetry(path string) (data []byte, err error) {
	err = s.Retry.Do(func() error {
		data, err = s.fsys.ReadFile(path)
		return err
	})
	return data, err
}

// Dir returns the directory the store was opened in — where a sharded
// sweep keeps its lease manifest.
func (s *Store) Dir() string { return filepath.Dir(s.path) }

// Path returns the primary log file location.
func (s *Store) Path() string { return s.path }

// WritePath returns the log file this Store appends to — the primary
// when this Store holds its lock, otherwise an owned segment.
func (s *Store) WritePath() string { return s.writePath }

// Stats returns current counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	n := len(s.entries)
	ro := s.readOnly
	s.mu.Unlock()
	return Stats{
		Hits:     s.hits.Load(),
		Misses:   s.misses.Load(),
		Puts:     s.puts.Load(),
		Entries:  n,
		Segments: s.segments,
		Primary:  s.primary,
		ReadOnly: ro,
	}
}

// Close flushes and closes the write log, releasing its lock. A segment
// that never received a record is removed so abandoned openers leave no
// litter behind; the unlink happens while the flock is still held, so it
// can only ever hit our own file — never a namesake claimed by a new
// writer after the lock was released.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	removeEmpty := !s.primary && !s.readOnly
	if removeEmpty {
		if fi, err := s.f.Stat(); err != nil || fi.Size() > int64(headerLen) {
			removeEmpty = false
		}
	}
	if removeEmpty {
		s.fsys.Remove(s.writePath)
	}
	return s.f.Close()
}

// loadPrimary reads the primary log (whose lock we hold), keeps its
// valid prefix in memory, and truncates anything unreadable beyond it.
func (s *Store) loadPrimary() error {
	data, err := s.readFileRetry(s.path)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	recs, pos, ok := scanLog(data)
	if !ok {
		// Empty, foreign, or stale-version file: start fresh. Cached
		// numbers from another format version must not be served.
		if err := s.f.Truncate(0); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		if _, err := s.f.WriteAt(header(), 0); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		s.off = int64(headerLen)
		return nil
	}
	for _, r := range recs {
		s.entries[r.key] = r.payload
	}
	if pos < len(data) {
		if err := s.f.Truncate(int64(pos)); err != nil {
			return fmt.Errorf("store: %w", err)
		}
	}
	s.off = int64(pos)
	return nil
}

// claimSegment creates a fresh per-writer segment log. O_EXCL makes the
// claim atomic even on a shared filesystem; the flock is uncontended
// (nobody else can own a name they failed to create) but taken anyway so
// compaction can tell live segments from abandoned ones.
func (s *Store) claimSegment(dir string) error {
	for k := 1; k < 1<<20; k++ {
		p := filepath.Join(dir, fmt.Sprintf("seg-%05d.tifs", k))
		f, err := s.fsys.OpenFile(p, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
		if errors.Is(err, fs.ErrExist) {
			continue
		}
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
		if _, err := f.TryLock(); err != nil {
			f.Close()
			return fmt.Errorf("store: lock %s: %w", p, err)
		}
		if _, err := f.WriteAt(header(), 0); err != nil {
			f.Close()
			s.fsys.Remove(p)
			return fmt.Errorf("store: %w", err)
		}
		s.f, s.writePath, s.primary = f, p, false
		s.off = int64(headerLen)
		return nil
	}
	return fmt.Errorf("store: no free segment slots in %s", dir)
}

// loadSegments merges the valid prefix of every segment present in dir
// (except our own write target) into the entry map. Later segments
// shadow earlier records with the same address; results are
// deterministic in their key, so shadowing can never change a value.
func (s *Store) loadSegments(dir string) error {
	paths, err := s.fsys.Glob(filepath.Join(dir, segPattern))
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if p == s.writePath {
			continue
		}
		s.segments++
		data, err := s.fsys.ReadFile(p)
		if err != nil {
			// A segment deleted by a concurrent compaction (its records
			// now live in the primary) or otherwise unreadable: skip —
			// worst case its grid points are recomputed.
			continue
		}
		recs, _, ok := scanLog(data)
		if !ok {
			continue // foreign or stale-version segment: contribute nothing
		}
		for _, r := range recs {
			s.entries[r.key] = r.payload
		}
	}
	return nil
}

// header renders the magic+version file header.
func header() []byte {
	return append(append(make([]byte, 0, headerLen), magic...), FormatVersion)
}

// rec is one decoded log record.
type rec struct {
	key     [sha256.Size]byte
	payload []byte
}

// scanLog validates a log file image and decodes its records. ok is
// false when the header is missing, foreign, or written by another
// FormatVersion — such a file must contribute nothing. pos is the end of
// the valid prefix; anything beyond it (a torn final append) is garbage
// the caller may truncate if it owns the file.
func scanLog(data []byte) (recs []rec, pos int, ok bool) {
	if len(data) < headerLen || string(data[:len(magic)]) != string(magic) || data[len(magic)] != FormatVersion {
		return nil, 0, false
	}
	pos = headerLen
	for pos < len(data) {
		next, key, payload, recOK := parseRecord(data, pos)
		if !recOK {
			break
		}
		recs = append(recs, rec{key: key, payload: payload})
		pos = next
	}
	return recs, pos, true
}

// parseRecord decodes the record at data[pos:]: 32-byte key hash, varint
// payload length, payload, 4-byte little-endian CRC-32 (IEEE) of the
// payload. ok is false on truncation or checksum mismatch.
func parseRecord(data []byte, pos int) (next int, key [sha256.Size]byte, payload []byte, ok bool) {
	if pos+sha256.Size > len(data) {
		return 0, key, nil, false
	}
	copy(key[:], data[pos:pos+sha256.Size])
	pos += sha256.Size
	plen, n := binary.Uvarint(data[pos:])
	if n <= 0 || plen > uint64(len(data)) {
		return 0, key, nil, false
	}
	pos += n
	if pos+int(plen)+4 > len(data) {
		return 0, key, nil, false
	}
	payload = data[pos : pos+int(plen)]
	pos += int(plen)
	if binary.LittleEndian.Uint32(data[pos:pos+4]) != crc32.ChecksumIEEE(payload) {
		return 0, key, nil, false
	}
	return pos + 4, key, payload, true
}

// appendRecord frames (addr, payload) as one log record.
func appendRecord(dst []byte, addr [sha256.Size]byte, payload []byte) []byte {
	dst = append(dst, addr[:]...)
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	dst = append(dst, payload...)
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
}

// address derives the content address of (kind, key).
func address(kind byte, key string) [sha256.Size]byte {
	h := sha256.New()
	h.Write([]byte{kind})
	h.Write([]byte(key))
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

// get returns the payload stored under (kind, key). Hit/miss counting
// happens in the typed getters, after the payload decodes.
func (s *Store) get(kind byte, key string) ([]byte, bool) {
	addr := address(kind, key)
	s.mu.Lock()
	payload, ok := s.entries[addr]
	s.mu.Unlock()
	return payload, ok
}

// drop forgets an entry whose payload would not decode, so the caller's
// re-simulated replacement can be put (later records shadow earlier
// ones with the same address on the next load).
func (s *Store) drop(kind byte, key string) {
	addr := address(kind, key)
	s.mu.Lock()
	delete(s.entries, addr)
	s.mu.Unlock()
}

// appendLocked writes rec at the end of the owned log (s.mu held).
// Appends are positional: every attempt lands at exactly s.off, so a
// torn attempt is overwritten in place by its own retry and can never
// interleave with earlier records. Transient faults retry under the
// store's backoff policy; the final error is returned for the caller to
// degrade on.
func (s *Store) appendLocked(rec []byte) error {
	err := s.Retry.Do(func() error {
		n, werr := s.f.WriteAt(rec, s.off)
		if werr == nil && n == len(rec) {
			return nil
		}
		if werr == nil {
			werr = io.ErrShortWrite
		}
		// Cut any torn bytes back to the valid prefix, best-effort: the
		// CRC framing already protects readers, and the retry rewrites
		// the same region anyway.
		s.f.Truncate(s.off)
		return werr
	})
	if err != nil {
		return err
	}
	s.off += int64(len(rec))
	return nil
}

// put appends a record to the owned log and indexes it. Transient write
// faults are retried; a permanent failure (disk full, read-only media)
// degrades the store to in-memory operation with a logged warning — the
// entry still lands in memory, this run's numbers are unaffected, and
// the next process re-simulates what never reached disk.
func (s *Store) put(kind byte, key string, payload []byte) {
	s.putAddr(address(kind, key), payload)
}

// putAddr is put for callers that already hold the content address (the
// typed putters, and the blob API the remote store protocol uses).
func (s *Store) putAddr(addr [sha256.Size]byte, payload []byte) {
	rec := appendRecord(make([]byte, 0, sha256.Size+binary.MaxVarintLen64+len(payload)+4), addr, payload)

	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.entries[addr]; exists {
		return
	}
	s.entries[addr] = payload
	s.puts.Add(1)
	if s.readOnly || s.closed {
		return
	}
	if err := s.appendLocked(rec); err != nil {
		s.readOnly = true
		s.Logf("store: append to %s failed (%v); degrading to in-memory operation — this run is unaffected, but results cached from here on will be recomputed by the next run", s.writePath, err)
	}
}

// GetResult returns the cached simulation result for the engine job key,
// if present and decodable.
func (s *Store) GetResult(key string) (sim.Result, bool) {
	payload, ok := s.get(kindResult, key)
	if !ok {
		s.misses.Add(1)
		return sim.Result{}, false
	}
	res, err := decodeResult(payload)
	if err != nil {
		s.misses.Add(1)
		s.drop(kindResult, key)
		return sim.Result{}, false
	}
	s.hits.Add(1)
	return res, true
}

// PutResult caches a simulation result under the engine job key. The
// result is deep-encoded; the caller's slices are not retained.
func (s *Store) PutResult(key string, r sim.Result) {
	s.put(kindResult, key, encodeResult(r))
}

// GetMissTraces returns the cached per-core filtered miss traces for an
// extraction key, if present and decodable.
func (s *Store) GetMissTraces(key string) ([][]trace.MissRecord, bool) {
	payload, ok := s.get(kindMissTraces, key)
	if !ok {
		s.misses.Add(1)
		return nil, false
	}
	recs, err := decodeMissTraces(payload)
	if err != nil {
		s.misses.Add(1)
		s.drop(kindMissTraces, key)
		return nil, false
	}
	s.hits.Add(1)
	return recs, true
}

// PutMissTraces caches per-core miss traces under an extraction key.
func (s *Store) PutMissTraces(key string, recs [][]trace.MissRecord) {
	payload, err := encodeMissTraces(recs)
	if err != nil {
		return
	}
	s.put(kindMissTraces, key, payload)
}

// HasResult reports whether a record is stored under the engine job key,
// without counting a hit or a miss. This is a presence check only —
// every stored record already passed its CRC in scanLog, and the rare
// payload that then fails to decode degrades to a re-simulation at read
// time — so coverage preflights over huge grids stay cheap.
func (s *Store) HasResult(key string) bool {
	_, ok := s.get(kindResult, key)
	return ok
}

// HasMissTraces is HasResult for trace extractions.
func (s *Store) HasMissTraces(key string) bool {
	_, ok := s.get(kindMissTraces, key)
	return ok
}
