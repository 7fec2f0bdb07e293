// Per-shard write-ahead log for the out-of-core resolver: the layer
// that turns "recovers to the last checkpoint" into "loses nothing it
// acknowledged".
//
// Layout for a shard directory:
//
//	<root>/s<k>/wal-<seq>.wal        append-only commit log (CRC-32C
//	                                 framed records, truncate-on-tear)
//
// A WAL file opens with an 8-byte header (magic + version) followed by
// framed records, each [len u32][crc32c u32][payload]. Record 0 is the
// lineage meta: the resolver configuration plus {shard, shards,
// checkpoint, size} — the checkpoint this log extends and the global
// resolver size at its creation. Every later record is one committed
// profile: its serially-assigned entity ID, attributes, and the
// blocking keys it was indexed under. IDs are the determinism anchor:
// replaying records in ascending ID order reproduces the exact memtable
// insertion order of the never-crashed run, so snapshots, gathers, and
// float aggregates come out bit-identical.
//
// Torn tails truncate, never fail: the reader accepts the longest
// prefix of records whose frame lengths and CRCs verify, and recovery
// additionally keeps only the longest contiguous ID run starting at the
// checkpoint size — a record acknowledged to a client is by
// construction inside that run on its home shard's durable log.
//
// Rotation binds a log to exactly one checkpoint lineage: a seal
// creates the next WAL generation stamped with the about-to-commit
// (checkpoint, size) *before* the manifest commits, and the retention
// sweep deletes superseded logs only after the manifest that covers
// them is durable. Whichever side of the commit point a crash lands on,
// the surviving manifest and the log that matches its checkpoint agree.
package store

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"metablocking/internal/core"
	"metablocking/internal/entity"
	"metablocking/internal/incremental"
)

const (
	walMagic       = "MBWL"
	walVersion     = 1
	walHeaderSize  = 8 // magic + version
	walFrameHeader = 8 // payload length + CRC-32C
	// maxWalRecord bounds a single frame; a length field above it is
	// corruption (or a torn write through the length bytes), not data.
	maxWalRecord = 16 << 20
)

// WalFileName names the WAL file with the given rotation sequence.
func WalFileName(seq uint64) string {
	return fmt.Sprintf("wal-%020d.wal", seq)
}

func parseWalSeq(name string) (uint64, bool) {
	s, ok := strings.CutPrefix(name, "wal-")
	if !ok {
		return 0, false
	}
	s, ok = strings.CutSuffix(s, ".wal")
	if !ok {
		return 0, false
	}
	seq, err := strconv.ParseUint(s, 10, 64)
	return seq, err == nil
}

// WalMeta is a log's lineage binding, written as its first record: the
// resolver configuration and the checkpoint the log extends. Recovery
// replays only logs whose meta matches the checkpoint it loaded —
// a log rotated for a checkpoint that never committed, or left behind
// by an abandoned reload lineage, is silently skipped.
type WalMeta struct {
	Scheme         int
	K              int
	MaxBlockSize   int
	MinTokenLength int

	Shard  int
	Shards int
	// Checkpoint is the checkpoint id this log's records build on.
	Checkpoint uint64
	// Size is the global resolver size at that checkpoint; every record
	// in the log carries an ID >= Size.
	Size int
}

// WalMetaFor binds a log to cfg and the (checkpoint, size) lineage.
func WalMetaFor(cfg incremental.Config, shard, shards int, checkpoint uint64, size int) WalMeta {
	return WalMeta{
		Scheme:         int(cfg.Scheme),
		K:              cfg.K,
		MaxBlockSize:   cfg.MaxBlockSize,
		MinTokenLength: cfg.MinTokenLength,
		Shard:          shard,
		Shards:         shards,
		Checkpoint:     checkpoint,
		Size:           size,
	}
}

// Config returns the resolver configuration the meta binds.
func (m *WalMeta) Config() incremental.Config {
	return incremental.Config{
		Scheme:         core.Scheme(m.Scheme),
		K:              m.K,
		MaxBlockSize:   m.MaxBlockSize,
		MinTokenLength: m.MinTokenLength,
	}
}

// WalRecord is one committed profile: the serially-assigned ID from the
// coordinator's two-phase commit, the profile, and the blocking keys it
// was indexed under (stored, not re-derived, so replay cannot diverge
// from what the acknowledged commit actually did).
type WalRecord struct {
	ID      entity.ID
	Profile entity.Profile
	Keys    []string
}

// AppendWalRecord appends rec's payload encoding to dst: uvarint ID,
// then the attribute list, then the key list, all length-prefixed.
func AppendWalRecord(dst []byte, rec WalRecord) []byte {
	dst = binary.AppendUvarint(dst, uint64(rec.ID))
	dst = binary.AppendUvarint(dst, uint64(len(rec.Profile.Attributes)))
	for _, a := range rec.Profile.Attributes {
		dst = appendWalString(dst, a.Name)
		dst = appendWalString(dst, a.Value)
	}
	dst = binary.AppendUvarint(dst, uint64(len(rec.Keys)))
	for _, k := range rec.Keys {
		dst = appendWalString(dst, k)
	}
	return dst
}

func appendWalString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// DecodeWalRecord parses one record payload. Any malformed byte —
// truncated varint, length past the buffer, trailing garbage — is an
// error; the recovery scan treats it as the torn tail of its file.
func DecodeWalRecord(payload []byte) (WalRecord, error) {
	var rec WalRecord
	id, n, err := walUvarint(payload)
	if err != nil || id > uint64(1)<<31-1 {
		return rec, ErrCorruptArtifact
	}
	payload = payload[n:]
	rec.ID = entity.ID(id)
	attrs, n, err := walUvarint(payload)
	if err != nil || attrs > uint64(len(payload)) {
		return rec, ErrCorruptArtifact
	}
	payload = payload[n:]
	if attrs > 0 {
		rec.Profile.Attributes = make([]entity.Attribute, 0, attrs)
		for i := uint64(0); i < attrs; i++ {
			var name, value string
			if name, payload, err = walString(payload); err != nil {
				return rec, err
			}
			if value, payload, err = walString(payload); err != nil {
				return rec, err
			}
			rec.Profile.Attributes = append(rec.Profile.Attributes, entity.Attribute{Name: name, Value: value})
		}
	}
	rec.Profile.ID = rec.ID
	keys, n, err := walUvarint(payload)
	if err != nil || keys > uint64(len(payload)) {
		return rec, ErrCorruptArtifact
	}
	payload = payload[n:]
	if keys > 0 {
		rec.Keys = make([]string, 0, keys)
		for i := uint64(0); i < keys; i++ {
			var k string
			if k, payload, err = walString(payload); err != nil {
				return rec, err
			}
			rec.Keys = append(rec.Keys, k)
		}
	}
	if len(payload) != 0 {
		return rec, ErrCorruptArtifact
	}
	return rec, nil
}

func walUvarint(b []byte) (uint64, int, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, 0, ErrCorruptArtifact
	}
	return v, n, nil
}

func walString(b []byte) (string, []byte, error) {
	n, sz, err := walUvarint(b)
	if err != nil || n > uint64(len(b)-sz) {
		return "", nil, ErrCorruptArtifact
	}
	return string(b[sz : sz+int(n)]), b[sz+int(n):], nil
}

// WalWriter appends framed records to one log file. Append pushes each
// frame to the OS with a single write, so a SIGKILL'd process loses at
// most the record it had not yet been acknowledged for; Sync is the
// fsync boundary that extends the guarantee to power loss, invoked per
// batch (group commit), on a timer, or never, per the sync
// policy.
type WalWriter struct {
	f       *os.File
	path    string
	bytes   int64
	records int64
	dirty   bool
	frame   []byte
}

// CreateWal creates (or truncates) path and durably writes the header
// and meta record: the file, its lineage binding, and its directory
// entry are all synced before any commit is logged against it.
func CreateWal(path string, meta WalMeta) (*WalWriter, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	w := &WalWriter{f: f, path: path}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(meta); err != nil {
		f.Close()
		return nil, err
	}
	hdr := make([]byte, 0, walHeaderSize)
	hdr = append(hdr, walMagic...)
	hdr = binary.LittleEndian.AppendUint32(hdr, walVersion)
	if _, err := f.Write(hdr); err != nil {
		w.abort()
		return nil, err
	}
	w.bytes = walHeaderSize
	if err := w.Append(buf.Bytes()); err != nil {
		w.abort()
		return nil, err
	}
	w.records = 0 // the meta record is framing, not data
	if err := w.Sync(); err != nil {
		w.abort()
		return nil, err
	}
	if err := syncDir(filepath.Dir(path)); err != nil {
		w.abort()
		return nil, err
	}
	return w, nil
}

// abort closes and removes a half-created log.
func (w *WalWriter) abort() {
	w.f.Close()
	os.Remove(w.path)
}

// Append frames payload and writes it to the OS in one write call. The
// caller must not acknowledge the commit if Append fails.
func (w *WalWriter) Append(payload []byte) error {
	if len(payload) > maxWalRecord {
		return fmt.Errorf("store: wal record %d bytes exceeds limit: %w", len(payload), ErrCorruptArtifact)
	}
	w.frame = w.frame[:0]
	w.frame = binary.LittleEndian.AppendUint32(w.frame, uint32(len(payload)))
	w.frame = binary.LittleEndian.AppendUint32(w.frame, crc32.Checksum(payload, crcPoly))
	w.frame = append(w.frame, payload...)
	if _, err := w.f.Write(w.frame); err != nil {
		return err
	}
	w.bytes += int64(len(w.frame))
	w.records++
	w.dirty = true
	return nil
}

// Sync fsyncs the log — the group-commit barrier.
func (w *WalWriter) Sync() error {
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.dirty = false
	return nil
}

// Close closes the file handle without syncing (callers sync first when
// the close must be durable).
func (w *WalWriter) Close() error { return w.f.Close() }

// Remove closes the writer and deletes its file — the discard path when
// a rotation's manifest commit fails and the old log stays live.
func (w *WalWriter) Remove() {
	w.f.Close()
	os.Remove(w.path)
}

// Bytes is the log's current size in bytes.
func (w *WalWriter) Bytes() int64 { return w.bytes }

// Records is the number of data records appended since creation.
func (w *WalWriter) Records() int64 { return w.records }

// Dirty reports whether appends have happened since the last Sync.
func (w *WalWriter) Dirty() bool { return w.dirty }

// Name is the log's file name within its shard directory.
func (w *WalWriter) Name() string { return filepath.Base(w.path) }

// readWalFile reads one log: its meta, the payloads of every record in
// the longest verifiable prefix, and how many trailing bytes were torn
// (0 or 1 frames — a tear ends the scan). ok is false when the file is
// unreadable or its header/meta does not verify, in which case the
// whole file is ignored; damage never turns into an error here.
func readWalFile(path string) (meta WalMeta, payloads [][]byte, torn int64, ok bool) {
	data, err := os.ReadFile(path)
	if err != nil || len(data) < walHeaderSize || string(data[:4]) != walMagic ||
		binary.LittleEndian.Uint32(data[4:8]) != walVersion {
		return meta, nil, 0, false
	}
	off := walHeaderSize
	first := true
	for off+walFrameHeader <= len(data) {
		n := int(binary.LittleEndian.Uint32(data[off : off+4]))
		crc := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if n > maxWalRecord || off+walFrameHeader+n > len(data) {
			torn = 1
			break
		}
		payload := data[off+walFrameHeader : off+walFrameHeader+n]
		if crc32.Checksum(payload, crcPoly) != crc {
			torn = 1
			break
		}
		off += walFrameHeader + n
		if first {
			first = false
			if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&meta); err != nil {
				return meta, nil, 0, false
			}
			continue
		}
		payloads = append(payloads, payload)
	}
	if off < len(data) && torn == 0 {
		torn = 1 // trailing partial frame header
	}
	if first {
		return meta, nil, 0, false // no verifiable meta record
	}
	return meta, payloads, torn, true
}

// WalTail is the recovered log tail: the records to replay on top of
// the checkpoint, already deduplicated, ID-contiguous from the
// checkpoint size, and in ascending ID order; plus per-shard counts of
// frames dropped as torn, undecodable, or outside the contiguous run.
type WalTail struct {
	Records []WalRecord
	// Cfg is the resolver configuration the logs bind; meaningful only
	// when Records is non-empty.
	Cfg incremental.Config
	// Truncated[k] counts shard k's dropped frames.
	Truncated []int64
}

// RecoverWalTail scans every shard's logs that extend the recovered
// checkpoint and assembles the replayable tail. Records from logs bound
// to a different checkpoint (an uncommitted rotation, an abandoned
// lineage) are skipped entirely; duplicate IDs (a crash between
// recovery's re-log and its sweep) collapse; and only the longest
// contiguous ID run starting at layout.Size survives — an ID gap means
// the missing commit was never acknowledged, so nothing after it was
// either.
func RecoverWalTail(layout *DiskLayout) WalTail {
	tail := WalTail{Truncated: make([]int64, layout.Shards)}
	byID := make(map[entity.ID]WalRecord)
	perShard := make([]int64, layout.Shards)
	for k, state := range layout.Shard {
		for _, name := range state.WALs {
			meta, payloads, torn, ok := readWalFile(filepath.Join(state.Dir, name))
			if !ok {
				continue
			}
			if meta.Shard != k || meta.Shards != layout.Shards || meta.Checkpoint != layout.Checkpoint {
				continue
			}
			if layout.Checkpoint != 0 && meta.Config() != layout.Cfg {
				continue
			}
			tail.Truncated[k] += torn
			for _, payload := range payloads {
				rec, err := DecodeWalRecord(payload)
				if err != nil || int(rec.ID)%layout.Shards != k {
					// Undecodable or mis-homed past the CRC: treat the
					// rest of this file as torn.
					tail.Truncated[k]++
					break
				}
				if int(rec.ID) < layout.Size {
					continue // already inside the checkpoint
				}
				if _, dup := byID[rec.ID]; !dup {
					byID[rec.ID] = rec
					perShard[k]++
					tail.Cfg = meta.Config()
				}
			}
		}
	}
	for id := entity.ID(layout.Size); ; id++ {
		rec, ok := byID[id]
		if !ok {
			break
		}
		tail.Records = append(tail.Records, rec)
	}
	// Valid records beyond the contiguous run count as truncated on the
	// shard that held them.
	dropped := int64(len(byID)) - int64(len(tail.Records))
	if dropped > 0 {
		replayed := make([]int64, layout.Shards)
		for _, rec := range tail.Records {
			replayed[int(rec.ID)%layout.Shards]++
		}
		for k := range perShard {
			tail.Truncated[k] += perShard[k] - replayed[k]
		}
	}
	return tail
}
