//go:build !linux || arm

package ledger

import "os"

// syncFileRangeWrite is the write-behind hint of writeback_linux.go; other
// platforms (and linux/arm, whose syscall package lacks the call) have no
// equivalent that does not wait, and need none to be correct.
func syncFileRangeWrite(*os.File, int64, int64) error { return nil }
