// Package store is the persistent, content-addressed result store that
// lets analyzer, simulator, and write-allocate-curve results survive
// across processes. It composes up to two tiers:
//
//   - an on-disk layer, one file per entry, addressed by the SHA-256 of
//     the entry's content key and sharded into 256 prefix directories so
//     no single directory grows unboundedly, and
//   - optionally a remote peer tier (the Remote interface, implemented
//     by internal/remotestore): a replica's store reached over HTTP,
//     consulted after a disk miss and populated by async write-behind,
//     so a fleet of replicas is cache-coherent for free — entries are
//     immutable values under content keys. The remote tier is strictly
//     best-effort: any failure is a local miss, never an error.
//
// Keys are the same content keys the pipeline memo cache uses
// (core.Analyzer.Fingerprint plus model key plus block text, and
// friends): everything that determines the result, nothing that doesn't.
// Payloads are opaque bytes; callers bring their own encoding. The store
// keeps no payload in memory: the pipeline memo above it answers every
// repeated lookup within a process, so the store sees each key looked
// up at most once per process.
//
// Every disk entry carries a schema-version stamp. An entry whose stamp
// differs from the open store's schema — or that is truncated, corrupted,
// or hash-collided — self-evicts on read: the file is deleted and the
// lookup reports a miss, so a schema bump or a damaged cache directory
// degrades to a cold run instead of an error or, worse, a stale result.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"unicode/utf8"

	"incore/internal/jsonstr"
)

// envelopeVersion identifies the on-disk envelope layout itself,
// independent of the caller's payload schema.
const envelopeVersion = 1

// envelope is the on-disk entry format. Key is stored verbatim so a read
// can reject SHA-256 prefix collisions and detect truncation cheaply.
// Payload is opaque bytes (base64 on disk): the store must not assume its
// callers' encoding.
//
// writeDisk encodes it with encoding/json, whose output for this fixed
// struct is one canonical byte string:
//
//	{"v":1,"schema":N,"key":"<key, JSON-escaped>","payload":"<base64>"}
//
// (a nil payload encodes as null). Reads do not decode it reflectively:
// cutEntry accepts exactly those bytes and nothing else, so any other
// bytes — truncation, stray whitespace, reordered fields, alternative
// escapes — are damage and self-evict.
type envelope struct {
	V       int    `json:"v"`
	Schema  int    `json:"schema"`
	Key     string `json:"key"`
	Payload []byte `json:"payload"`
}

// Options configures Open.
type Options struct {
	// Schema is the caller's payload schema version. Entries stamped
	// with any other value self-evict on read. Bump it whenever the
	// encoding of any stored payload changes shape or meaning.
	Schema int
}

// Stats is a point-in-time accounting snapshot of one store.
type Stats struct {
	// DiskHits were read and verified from the disk tier.
	DiskHits uint64 `json:"disk_hits" help:"Store disk tier hits."`
	// RemoteHits were fetched from the remote peer tier, verified, and
	// written to the disk tier.
	RemoteHits uint64 `json:"remote_hits" help:"Store remote tier hits."`
	// RemoteRejects counts remote payloads the caller's validator
	// refused after the transport-level verification passed (payload
	// drift without a schema bump); rejected payloads are treated as
	// misses and never reach the disk tier.
	RemoteRejects uint64 `json:"remote_rejects" help:"Remote payloads refused by validation."`
	// Misses found no usable entry in any tier (cold lookups).
	Misses uint64 `json:"misses" help:"Store cold lookups."`
	// Evictions counts disk entries deleted on read because they were
	// stale (schema mismatch) or damaged (truncated, corrupted,
	// key-collided).
	Evictions uint64 `json:"evictions" help:"Stale or damaged disk entries evicted."`
	// PutErrors counts failed writes (the store stays usable; a failed
	// put only costs a future cold lookup).
	PutErrors uint64 `json:"put_errors" help:"Failed store writes."`
}

// Warm returns the lookups served without recomputation.
func (s Stats) Warm() uint64 { return s.DiskHits + s.RemoteHits }

// Sub returns the accounting accumulated since prev was snapshotted,
// every counter as a delta. The serve tier uses it to attribute
// warm/cold lookups to one request window in its access log
// (approximate under concurrent traffic — deltas from overlapping
// requests interleave — but exact for the serialized CI resume gate).
func (s Stats) Sub(prev Stats) Stats {
	return Stats{
		DiskHits:      s.DiskHits - prev.DiskHits,
		RemoteHits:    s.RemoteHits - prev.RemoteHits,
		RemoteRejects: s.RemoteRejects - prev.RemoteRejects,
		Misses:        s.Misses - prev.Misses,
		Evictions:     s.Evictions - prev.Evictions,
		PutErrors:     s.PutErrors - prev.PutErrors,
	}
}

// Remote is an optional second tier under the disk tier: a peer replica's
// store reached over the network (internal/remotestore). The contract is
// strictly best-effort — Get must degrade to a miss on any failure and
// must verify fetched content before surfacing it, Put must never block
// the caller (write-behind) — so the store's correctness and latency
// never depend on the network.
type Remote interface {
	Get(key string) ([]byte, bool)
	Put(key string, payload []byte)
}

// Store is a persistent result store: on-disk entries, optionally backed
// by a remote peer. It is safe for concurrent use.
type Store struct {
	dir    string
	schema int
	remote Remote
	// head is the prefix every entry of this schema starts with, up to
	// and excluding the key token.
	head []byte

	diskHits      atomic.Uint64
	remoteHits    atomic.Uint64
	remoteRejects atomic.Uint64
	misses        atomic.Uint64
	evictions     atomic.Uint64
	putErrors     atomic.Uint64
}

// Open prepares dir (creating it if needed) and returns a store stamping
// entries with o.Schema.
func Open(dir string, o Options) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	removeStaleTemps(dir)
	return &Store{
		dir:    dir,
		schema: o.Schema,
		head:   fmt.Appendf(nil, `{"v":%d,"schema":%d,"key":`, envelopeVersion, o.Schema),
	}, nil
}

// removeStaleTemps deletes leftover write-temp files from a process
// killed mid-write. Atomic writes go through same-directory ".tmp-*"
// files; one that still exists at open was never renamed into place and
// can only be a torn write — loading it is impossible (entries are only
// ever read via their final names), but cleaning it keeps a crash loop
// from accreting garbage.
func removeStaleTemps(dir string) {
	shards, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, sh := range shards {
		if !sh.IsDir() {
			continue
		}
		sub := filepath.Join(dir, sh.Name())
		files, err := os.ReadDir(sub)
		if err != nil {
			continue
		}
		for _, f := range files {
			if strings.HasPrefix(f.Name(), ".tmp-") {
				os.Remove(filepath.Join(sub, f.Name()))
			}
		}
	}
}

// Dir returns the store's on-disk root.
func (s *Store) Dir() string { return s.dir }

// SetRemote attaches (or detaches, with nil) the remote peer tier. Call
// it at startup, before the store serves traffic.
func (s *Store) SetRemote(r Remote) { s.remote = r }

// Remote returns the attached remote tier, or nil.
func (s *Store) Remote() Remote { return s.remote }

// path maps a content key to its entry file: dir/<hh>/<sha256 hex>.json.
func (s *Store) path(key string) string { return s.hashPath(KeyHash(key)) }

// hashPath maps an entry address (the hex SHA-256 of its content key) to
// its file.
func (s *Store) hashPath(hash string) string {
	return filepath.Join(s.dir, hash[:2], hash+".json")
}

// GetValidated returns the payload stored for key, reading the disk tier
// and falling back to the remote peer. Damaged or schema-stale disk
// entries are deleted and reported as misses. A non-nil validate checks
// the payload: one it rejects is treated exactly like a corrupted entry
// — deleted, counted as an eviction and a miss — so Warm() counts only
// lookups that truly spared the caller a recomputation, and a
// payload-level decode drift can never report a 100%-warm run that in
// fact recomputed everything.
func (s *Store) GetValidated(key string, validate func([]byte) error) ([]byte, bool) {
	p := s.path(key)
	if data, err := os.ReadFile(p); err == nil {
		payload, ok := s.cutEntry(data, key)
		if !ok || (validate != nil && validate(payload) != nil) {
			os.Remove(p)
			s.evictions.Add(1)
			// A damaged disk entry falls through to the remote tier: the
			// peer may hold an intact copy of exactly this entry.
		} else {
			s.diskHits.Add(1)
			return payload, true
		}
	}
	// Remote peer tier. The remote client verifies transport integrity
	// (schema stamp, key address, payload hash) before returning; the
	// caller's validator then applies the same payload-level check disk
	// entries get, so a peer can never make Warm() claim a lookup that
	// would in fact recompute.
	if r := s.remote; r != nil {
		if payload, ok := r.Get(key); ok {
			if validate != nil && validate(payload) != nil {
				s.remoteRejects.Add(1)
			} else {
				// Write the entry to disk so the next process reads it
				// locally. The write is local-only: the peer already holds
				// this entry.
				s.writeDisk(key, p, payload)
				s.remoteHits.Add(1)
				return payload, true
			}
		}
	}
	s.misses.Add(1)
	return nil, false
}

// Put stores payload under key on disk and, when a remote peer is
// attached, hands it to the peer's write-behind queue (async best-effort:
// remote latency or death never reaches this caller). Disk writes are
// atomic (temp file + rename), so concurrent writers and readers of one
// entry never observe a partial file; write failures are counted, not
// returned — a store that cannot persist leaves the process memo as the
// only cache.
//
// A key must be valid UTF-8. Put refuses any other key: it counts a put
// error and writes nothing, because the envelope could only hold the key
// with U+FFFD in place of its invalid bytes, an entry no read of the
// original key could match.
func (s *Store) Put(key string, payload []byte) {
	if s.putLocal(key, payload) {
		if r := s.remote; r != nil {
			r.Put(key, payload)
		}
	}
}

// PutLocal is Put without remote propagation. The peer PUT handler uses
// it so replicated entries cannot ping-pong between peers.
func (s *Store) PutLocal(key string, payload []byte) {
	s.putLocal(key, payload)
}

// putLocal writes the disk tier and reports whether key was accepted.
func (s *Store) putLocal(key string, payload []byte) bool {
	if !utf8.ValidString(key) {
		s.putErrors.Add(1)
		return false
	}
	s.writeDisk(key, s.path(key), payload)
	return true
}

// cutEntry returns the payload of data when data is exactly the bytes
// writeDisk writes for key under this store's schema. The key token is
// compared in its escaped form, so no key is decoded on the hot path.
// A key that is not valid UTF-8 never matches: its escaped form is
// shared with the key holding U+FFFD in place of the invalid bytes.
func (s *Store) cutEntry(data []byte, key string) ([]byte, bool) {
	rest, ok := bytes.CutPrefix(data, s.head)
	if !ok || !utf8.ValidString(key) {
		return nil, false
	}
	if rest, ok = bytes.CutPrefix(rest, jsonstr.Append(make([]byte, 0, len(key)+len(key)/4+2), key)); !ok {
		return nil, false
	}
	return cutPayload(rest)
}

// cutPayload decodes the tail of an entry after its key token: exactly
// `,"payload":"<base64>"}` or `,"payload":null}`. The base64 is decoded
// as encoding/json decodes a []byte field (StdEncoding, padded), and
// must be all of the field: StdEncoding skips raw line breaks, which a
// JSON string cannot hold.
func cutPayload(rest []byte) ([]byte, bool) {
	rest, ok := bytes.CutPrefix(rest, []byte(`,"payload":`))
	if !ok {
		return nil, false
	}
	if string(rest) == `null}` {
		return nil, true
	}
	src, ok := bytes.CutSuffix(rest, []byte(`"}`))
	if !ok || len(src) == 0 || src[0] != '"' {
		return nil, false
	}
	src = src[1:]
	dst := make([]byte, base64.StdEncoding.DecodedLen(len(src)))
	n, err := base64.StdEncoding.Decode(dst, src)
	if err != nil || base64.StdEncoding.EncodedLen(n) != len(src) {
		return nil, false
	}
	return dst[:n], true
}

// writeDisk persists one entry at its final path, counting failures.
func (s *Store) writeDisk(key, path string, payload []byte) {
	data, err := json.Marshal(envelope{V: envelopeVersion, Schema: s.schema, Key: key, Payload: payload})
	if err != nil {
		s.putErrors.Add(1)
		return
	}
	if err := WriteAtomic(path, data); err != nil {
		s.putErrors.Add(1)
	}
}

// GetByHash reads one disk entry by its address (the hex SHA-256 of its
// content key) and returns the verbatim key alongside the payload. It is
// the peer-protocol read path — a peer asks for an address, not a key —
// and deliberately skips the remote tier and the hit/miss
// accounting: peer replication must not inflate this replica's warm
// counts or recurse into its own peer. Damaged entries self-evict
// exactly as in GetValidated.
func (s *Store) GetByHash(hash string) (key string, payload []byte, ok bool) {
	p := s.hashPath(hash)
	data, err := os.ReadFile(p)
	if err != nil {
		return "", nil, false
	}
	// The key is read from its token, then the whole entry is checked
	// against it by the same reader GetValidated uses, so both accept
	// exactly writeDisk's bytes.
	if rest, found := bytes.CutPrefix(data, s.head); found {
		if key, _, ok = jsonstr.Cut(rest); ok {
			payload, ok = s.cutEntry(data, key)
		}
	}
	if !ok || KeyHash(key) != hash {
		os.Remove(p)
		s.evictions.Add(1)
		return "", nil, false
	}
	return key, payload, true
}

// KeyHash returns the hex SHA-256 of a content key: the address of its
// entry both in the on-disk layout and in the peer protocol.
func KeyHash(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:])
}

// WriteAtomic writes data to path via a same-directory ".tmp-*" temp
// file and rename, creating the directory on demand, so a reader never
// sees a torn file under path.
func WriteAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	_, werr := f.Write(data)
	cerr := f.Close()
	if werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp)
		return werr
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// Stats returns the current accounting.
func (s *Store) Stats() Stats {
	return Stats{
		DiskHits:      s.diskHits.Load(),
		RemoteHits:    s.remoteHits.Load(),
		RemoteRejects: s.remoteRejects.Load(),
		Misses:        s.misses.Load(),
		Evictions:     s.evictions.Load(),
		PutErrors:     s.putErrors.Load(),
	}
}
