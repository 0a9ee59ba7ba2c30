package remotestore

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"incore/internal/store"
)

// The peer wire format. Entries travel as a self-verifying envelope: the
// content key verbatim (so the receiver can check it hashes to the
// addressed entry), the payload, and the payload's own SHA-256. A
// truncated, corrupted, or substituted entry fails one of the three
// checks and is discarded — a hostile or broken peer can cost a cache
// miss, never a wrong byte.

// WireVersion identifies the peer envelope layout itself, independent of
// the payload schema both peers stamp entries with.
const WireVersion = 1

// wireEntry is the body of GET and PUT /v1/store/{key}.
type wireEntry struct {
	V      int    `json:"v"`
	Schema int    `json:"schema"`
	Key    string `json:"key"`
	// Sum is the hex SHA-256 of Payload — the verify-on-fetch hash.
	Sum     string `json:"sum"`
	Payload []byte `json:"payload"`
}

// ValidHash reports whether h is a well-formed entry address (64 lowercase
// hex chars). Peer handlers reject anything else before touching disk.
func ValidHash(h string) bool {
	if len(h) != 64 {
		return false
	}
	for i := 0; i < len(h); i++ {
		c := h[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// EncodeEntry renders one entry in the peer wire form.
func EncodeEntry(schema int, key string, payload []byte) ([]byte, error) {
	sum := sha256.Sum256(payload)
	return json.Marshal(wireEntry{
		V:       WireVersion,
		Schema:  schema,
		Key:     key,
		Sum:     hex.EncodeToString(sum[:]),
		Payload: payload,
	})
}

// DecodeVerify parses a wire entry and runs the full verification chain:
// envelope version, schema stamp, key→address agreement, and payload
// hash. Any mismatch is an error; the caller must treat it exactly like
// a miss (plus accounting), never surface the payload.
func DecodeVerify(data []byte, wantHash string, schema int) (key string, payload []byte, err error) {
	var e wireEntry
	if err := json.Unmarshal(data, &e); err != nil {
		return "", nil, fmt.Errorf("remotestore: undecodable entry: %w", err)
	}
	if e.V != WireVersion {
		return "", nil, fmt.Errorf("remotestore: wire version %d, want %d", e.V, WireVersion)
	}
	if e.Schema != schema {
		return "", nil, fmt.Errorf("remotestore: schema %d, want %d", e.Schema, schema)
	}
	if store.KeyHash(e.Key) != wantHash {
		return "", nil, fmt.Errorf("remotestore: entry key does not hash to %s", wantHash)
	}
	sum := sha256.Sum256(e.Payload)
	if hex.EncodeToString(sum[:]) != e.Sum {
		return "", nil, fmt.Errorf("remotestore: payload hash mismatch (truncated or corrupted entry)")
	}
	return e.Key, e.Payload, nil
}
