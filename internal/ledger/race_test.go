//go:build race

package ledger

func init() { raceEnabled = true }
