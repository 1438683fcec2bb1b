//go:build !amd64

package fabcrypto

// No 16-lane SHA-256 kernel: HashBatch hashes every message on its own.
const haveHashLanes, hashLanesMissing = false, "amd64"

func sha256Lanes(h *hashState, p *[16]*byte, n int) {
	panic("fabcrypto: no 16-lane SHA-256 kernel on this GOARCH")
}
