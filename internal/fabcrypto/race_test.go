//go:build race

package fabcrypto

func init() { raceEnabled = true }
