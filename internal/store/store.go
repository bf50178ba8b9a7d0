// Package store is the content-addressed result tier behind hayatd's
// cache: a memory tier, a disk tier and remote peers, composed by
// Replicated into a self-healing replicated store. Every key is a
// lowercase-hex request hash and every value is the canonical result
// bytes that hash-addressed key identifies, so a copy fetched from any
// node is byte-identical to a local recomputation — the property that
// makes replication, read-repair and replica reads safe.
//
// Integrity model: disk entries are CRC32C-framed (internal/persist) and
// every byte that crosses a node boundary travels in an envelope carrying
// its RFC 6962 Merkle leaf hash (internal/merkle). A copy is checked when
// it is read, never ahead of time: a corrupt or truncated copy is
// quarantined on that read, never returned.
package store

import "strings"

// Failpoint names on the store's durable and remote seams (armed via
// HAYAT_FAILPOINTS / -failpoints). FPCacheRead/FPCacheWrite keep their
// historical "service.*" names so existing crash drills and arming specs
// stay valid across the extraction of this package from internal/service.
const (
	FPReplicate   = "store.replicate"     // every replica push (terminal-result fan-out and sweep repairs)
	FPReadReplica = "store.read-replica"  // every replica fetch (replica reads and sweep stats)
	FPAntiEntropy = "store.anti-entropy"  // every anti-entropy sweep
	FPCacheRead   = "service.cache-read"  // local disk-tier reads
	FPCacheWrite  = "service.cache-write" // local disk-tier writes
)

// VerifyFn checks candidate bytes for key against an external authority
// (the service wires the Merkle audit log here). A nil error accepts the
// bytes; an error marks them divergent so they are quarantined or
// re-fetched instead of served.
type VerifyFn func(key string, data []byte) error

// MaxKeyLen bounds key length on every untrusted surface (peers send
// keys in envelope headers and URL paths).
const MaxKeyLen = 128

// ValidKey accepts only non-empty lowercase-hex request hashes of
// bounded length, so keys can never escape a data directory or smuggle
// path syntax to a peer.
func ValidKey(key string) bool {
	if key == "" || len(key) > MaxKeyLen {
		return false
	}
	return strings.IndexFunc(key, func(r rune) bool {
		return !(r >= '0' && r <= '9' || r >= 'a' && r <= 'f')
	}) < 0
}
