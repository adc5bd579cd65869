package mc

// Product states are fingerprinted to 64 bits for the default visited
// set and for shard ownership in distributed exploration. Both uses need
// the hash to be deterministic across processes — every backend of a grid
// must agree on which shard owns a key — so the fingerprint is a fixed
// FNV-1a core with a splitmix64 finalizer, never a per-process seeded
// hash (scgrid's maphash-based rendezvous is seeded per process and is
// deliberately not reused here).

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// mix64 is the splitmix64 finalizer: a cheap bijection that spreads the
// FNV accumulator's low-entropy high bits before the value is used for
// shard selection or table placement.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Fingerprint hashes a canonical product-state key to 64 bits. It is a
// pure function of the key bytes, identical in every process.
func Fingerprint(key string) uint64 { return fingerprint(key) }

// FingerprintBytes is Fingerprint of a key held in a byte slice, without
// converting it to a string: FingerprintBytes(b) == Fingerprint(string(b)).
func FingerprintBytes(key []byte) uint64 { return fingerprint(key) }

func fingerprint[K string | []byte](key K) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= fnvPrime64
	}
	return mix64(h)
}

// ShardHashes precomputes the per-shard hash of each shard identity
// (backend address) for OwnerShard's rendezvous selection.
func ShardHashes(ids []string) []uint64 {
	out := make([]uint64, len(ids))
	for i, id := range ids {
		out[i] = Fingerprint(id)
	}
	return out
}

// OwnerShard maps a state fingerprint to its owning shard by rendezvous
// (highest-random-weight) hashing: the shard whose mixed (shard, state)
// score is highest wins, ties to the lower index. Every participant
// computes ownership from the same ordered shard-identity list carried in
// the explore hello, so the partition is consistent across processes
// without any shared table.
func OwnerShard(fp uint64, shardHashes []uint64) int {
	if len(shardHashes) <= 1 {
		return 0
	}
	best, bestScore := 0, mix64(fp^shardHashes[0])
	for i := 1; i < len(shardHashes); i++ {
		if s := mix64(fp ^ shardHashes[i]); s > bestScore {
			best, bestScore = i, s
		}
	}
	return best
}
