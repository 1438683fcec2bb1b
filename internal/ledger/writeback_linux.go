//go:build !arm

package ledger

import (
	"os"
	"syscall"
)

// syncFileRangeWrite asks the kernel to start writing back the n bytes of f
// at off and returns without waiting for any of them (SYNC_FILE_RANGE_WRITE
// alone): it makes nothing durable and promises nothing.
func syncFileRangeWrite(f *os.File, off, n int64) error {
	const syncFileRangeWriteFlag = 2 // SYNC_FILE_RANGE_WRITE
	return syscall.SyncFileRange(int(f.Fd()), off, n, syncFileRangeWriteFlag)
}
