package peer

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"bmac/internal/block"
	"bmac/internal/chaos"
	"bmac/internal/fsutil"
	"bmac/internal/identity"
	"bmac/internal/ledger"
	"bmac/internal/pipeline"
	"bmac/internal/statedb"
)

// Crash-state enumeration, after ALICE (Pillai et al., OSDI 2014) and
// CrashMonkey (Mohan et al., OSDI 2018): a script drives a durable peer
// through a recorder on the fsutil.FS seam, which logs every file-system
// mutation in order. For every op index k the recorder rebuilds the disk a
// crash right after op k could leave, in four modes, and the peer must
// recover from each of them.

// crashModes are the disks a crash can leave behind:
//
//   - kept: every op applied — a process crash; the page cache survives.
//   - synced: each file holds what it held at its last Sync, and a
//     namespace op after its directory's last SyncDir is undone.
//   - reordered: like synced, except that namespace ops persist while
//     unsynced data does not (ALICE's rename-before-data state).
//   - torn: like kept, except that the newest unsynced write stops at a
//     512-byte boundary.
var crashModes = []string{"kept", "synced", "reordered", "torn"}

// fsOp is one recorded file-system operation. Files are named by inode, so
// a write lands in the file it was issued to whatever renames follow.
type fsOp struct {
	kind string // create, write, truncate, sync, rename, remove, mkdir, syncdir or mark
	path string // create, rename (from), remove, mkdir, syncdir: relative to the root
	to   string // rename target
	ino  int    // create, write, truncate, sync
	off  int64  // write offset; truncate size
	data []byte // write: a copy (the ledger returns record buffers to a pool)
	mark crashMark
}

// crashMark is what a script knows at a point of its run: the blocks whose
// Commit returned, and the height every crash from here on must reach even
// without the page cache (a completed seal, checkpoint or synced block).
type crashMark struct {
	committed, durable uint64
}

// recorder is an fsutil.FS over a real directory that logs each mutation.
type recorder struct {
	fsutil.OS
	root string
	// oneWrite logs the two writes of a ledger record (Begin's length
	// prefix, header and data, then Finish's metadata) as the one write
	// the builds before that split issued.
	oneWrite bool

	mu    sync.Mutex
	ops   []fsOp         // guarded by mu
	names map[string]int // guarded by mu; live namespace: path → inode
	size  map[int]int64  // guarded by mu; live size of each inode
}

func newRecorder(root string) *recorder {
	return &recorder{root: root, names: map[string]int{}, size: map[int]int64{}}
}

func (r *recorder) rel(name string) string {
	rel, err := filepath.Rel(r.root, name)
	if err != nil || strings.HasPrefix(rel, "..") {
		panic(fmt.Sprintf("recorder: %s is outside %s", name, r.root))
	}
	return rel
}

// logLocked appends op. It must be called with r.mu held.
func (r *recorder) logLocked(op fsOp) { r.ops = append(r.ops, op) }

// createLocked gives path a new empty inode. It must be called with r.mu
// held.
func (r *recorder) createLocked(path string) int {
	ino := len(r.size)
	r.size[ino] = 0
	r.names[path] = ino
	r.logLocked(fsOp{kind: "create", path: path, ino: ino})
	return ino
}

func (r *recorder) OpenFile(name string, flag int, perm os.FileMode) (fsutil.File, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, err := r.OS.OpenFile(name, flag, perm)
	if err != nil || flag&(os.O_WRONLY|os.O_RDWR) == 0 {
		return f, err
	}
	path := r.rel(name)
	ino, ok := r.names[path]
	switch {
	case !ok:
		ino = r.createLocked(path)
	case flag&os.O_TRUNC != 0:
		r.size[ino] = 0
		r.logLocked(fsOp{kind: "truncate", ino: ino})
	}
	return &recFile{File: f, r: r, ino: ino, appends: flag&os.O_APPEND != 0}, nil
}

func (r *recorder) CreateTemp(dir, pattern string) (fsutil.File, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, err := r.OS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &recFile{File: f, r: r, ino: r.createLocked(r.rel(f.Name()))}, nil
}

func (r *recorder) Rename(oldpath, newpath string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.OS.Rename(oldpath, newpath); err != nil {
		return err
	}
	from, to := r.rel(oldpath), r.rel(newpath)
	r.names[to] = r.names[from]
	delete(r.names, from)
	r.logLocked(fsOp{kind: "rename", path: from, to: to})
	return nil
}

func (r *recorder) Remove(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.OS.Remove(name); err != nil {
		return err
	}
	delete(r.names, r.rel(name))
	r.logLocked(fsOp{kind: "remove", path: r.rel(name)})
	return nil
}

func (r *recorder) MkdirAll(path string, perm os.FileMode) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, statErr := os.Stat(path)
	if err := r.OS.MkdirAll(path, perm); err != nil {
		return err
	}
	if statErr != nil {
		r.logLocked(fsOp{kind: "mkdir", path: r.rel(path)})
	}
	return nil
}

func (r *recorder) SyncDir(dir string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.OS.SyncDir(dir); err != nil {
		return err
	}
	r.logLocked(fsOp{kind: "syncdir", path: r.rel(dir)})
	return nil
}

// mark records what the script knows at this point of its run.
func (r *recorder) mark(m crashMark) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.logLocked(fsOp{kind: "mark", mark: m})
}

// adopt records a change made to path behind the seam (chaos's at-rest
// bit rot) as a durable rewrite of the whole file.
func (r *recorder) adopt(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	ino := r.names[r.rel(path)]
	r.logLocked(fsOp{kind: "write", ino: ino, data: data})
	r.logLocked(fsOp{kind: "sync", ino: ino})
	return nil
}

// manifestFS replays, over a recorder, the writes of the builds that also
// listed the retained checkpoint generations in a checksummed MANIFEST
// beside them: once a generation's rename is durable it rewrites MANIFEST
// (magic "BMACMAN1", count, count × {height u64, name length u32, name},
// sha256 of all that) with the newest keep generations, before the older
// ones are removed. A peer upgraded from such a build must recover every
// disk it could leave; this build ignores MANIFEST and the open sweeps its
// temps.
type manifestFS struct {
	fsutil.FS
	keep    int
	pending string // directory of a generation renamed but not yet dir-synced
}

func (m *manifestFS) Rename(oldpath, newpath string) error {
	if err := m.FS.Rename(oldpath, newpath); err != nil {
		return err
	}
	if strings.HasPrefix(filepath.Base(newpath), "checkpoint-") {
		m.pending = filepath.Dir(newpath)
	}
	return nil
}

func (m *manifestFS) SyncDir(dir string) error {
	if err := m.FS.SyncDir(dir); err != nil || dir != m.pending {
		return err
	}
	m.pending = ""
	refs := statedb.Checkpoints(m.FS, dir)
	refs = refs[:min(len(refs), m.keep)]
	buf := binary.BigEndian.AppendUint64([]byte("BMACMAN1"), uint64(len(refs)))
	for _, r := range refs {
		buf = binary.BigEndian.AppendUint64(buf, r.Height)
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(r.File)))
		buf = append(buf, r.File...)
	}
	sum := sha256.Sum256(buf)
	buf = append(buf, sum[:]...)
	return fsutil.Replace(m.FS, filepath.Join(dir, "MANIFEST"), func(w io.Writer) error {
		_, err := w.Write(buf)
		return err
	})
}

// recFile is a file opened for writing through a recorder.
type recFile struct {
	fsutil.File
	r       *recorder
	ino     int
	appends bool  // O_APPEND: every write lands at the end
	pos     int64 // offset of the next write otherwise
}

func (f *recFile) Read(p []byte) (int, error) {
	n, err := f.File.Read(p)
	f.pos += int64(n)
	return n, err
}

func (f *recFile) Write(p []byte) (int, error) {
	f.r.mu.Lock()
	defer f.r.mu.Unlock()
	off := f.pos
	if f.appends {
		off = f.r.size[f.ino]
	}
	n, err := f.File.Write(p)
	if n > 0 {
		if last := len(f.r.ops) - 1; f.r.oneWrite && last >= 0 && endsRecord(&f.r.ops[last], f.ino, off, n) {
			f.r.ops[last].data = append(f.r.ops[last].data, p[:n]...)
		} else {
			f.r.logLocked(fsOp{kind: "write", ino: f.ino, off: off, data: bytes.Clone(p[:n])})
		}
		f.pos = off + int64(n)
		f.r.size[f.ino] = max(f.r.size[f.ino], f.pos)
	}
	return n, err
}

func (f *recFile) Truncate(size int64) error {
	f.r.mu.Lock()
	defer f.r.mu.Unlock()
	if err := f.File.Truncate(size); err != nil {
		return err
	}
	f.r.size[f.ino] = size
	f.r.logLocked(fsOp{kind: "truncate", ino: f.ino, off: size})
	return nil
}

func (f *recFile) Sync() error {
	f.r.mu.Lock()
	defer f.r.mu.Unlock()
	if err := f.File.Sync(); err != nil {
		return err
	}
	f.r.logLocked(fsOp{kind: "sync", ino: f.ino})
	return nil
}

// endsRecord reports whether a write of n bytes at off to inode ino is the
// rest of the ledger record op began: it continues op's bytes, and op's
// length prefix counts both.
func endsRecord(op *fsOp, ino int, off int64, n int) bool {
	return op.kind == "write" && op.ino == ino && op.off+int64(len(op.data)) == off &&
		len(op.data) >= 8 && binary.BigEndian.Uint64(op.data)+8 == uint64(len(op.data)+n)
}

// newestUnsynced returns the index of the newest write at or before k whose
// file was not synced after it, or -1.
func newestUnsynced(ops []fsOp, k int) int {
	synced := map[int]bool{}
	for i := k; i >= 0; i-- {
		switch ops[i].kind {
		case "sync":
			synced[ops[i].ino] = true
		case "write":
			if !synced[ops[i].ino] {
				return i
			}
		}
	}
	return -1
}

// disk rebuilds the files a crash right after ops[k] leaves in mode: path →
// content. torn is the index of the write a torn disk cuts short, -1 for
// the other modes; ok is false when mode has no such disk at k.
func disk(ops []fsOp, k int, mode string) (files map[string][]byte, torn int, ok bool) {
	torn = -1
	if mode == "torn" {
		if torn = newestUnsynced(ops, k); torn < 0 {
			return nil, -1, false
		}
	}
	type inode struct{ data, synced []byte }
	inodes := map[int]*inode{}
	names, durable := map[string]int{}, map[string]int{}
	for i, op := range ops[:k+1] {
		n := inodes[op.ino]
		switch op.kind {
		case "create":
			inodes[op.ino] = &inode{}
			names[op.path] = op.ino
		case "write":
			data := op.data
			if i == torn {
				// The write stops at the last 512-byte boundary inside it.
				end := op.off + int64(len(data))
				data = data[:max(0, (end-1)/512*512-op.off)]
			}
			if end := op.off + int64(len(data)); end > int64(len(n.data)) {
				n.data = append(n.data, make([]byte, end-int64(len(n.data)))...)
			}
			copy(n.data[op.off:], data)
		case "truncate":
			n.data = append(n.data[:min(op.off, int64(len(n.data)))], make([]byte, max(0, op.off-int64(len(n.data))))...)
		case "sync":
			n.synced = bytes.Clone(n.data)
		case "rename":
			names[op.to] = names[op.path]
			delete(names, op.path)
		case "remove":
			delete(names, op.path)
		case "syncdir":
			for name := range durable {
				if filepath.Dir(name) == op.path {
					delete(durable, name)
				}
			}
			for name, ino := range names {
				if filepath.Dir(name) == op.path {
					durable[name] = ino
				}
			}
		}
	}
	ns, content := names, func(n *inode) []byte { return n.data }
	switch mode {
	case "synced":
		ns = durable
		fallthrough
	case "reordered":
		content = func(n *inode) []byte { return n.synced }
	}
	files = map[string][]byte{}
	for name, ino := range ns {
		files[name] = content(inodes[ino])
	}
	return files, torn, true
}

// floor is the height a peer recovered from the disk of ops[k] in mode must
// reach: under kept every block whose Commit returned, under torn every
// block whose Commit returned before the torn write, under synced and
// reordered what the last mark says is durable.
func floor(ops []fsOp, k int, mode string, torn int) uint64 {
	upTo := k
	if mode == "torn" {
		upTo = torn
	}
	var m crashMark
	for _, op := range ops[:upTo+1] {
		if op.kind == "mark" {
			m = op.mark
		}
	}
	if mode == "kept" || mode == "torn" {
		return m.committed
	}
	return m.durable
}

func digest(files map[string][]byte) [sha256.Size]byte {
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, name := range names {
		fmt.Fprintf(h, "%s\x00%d\x00", name, len(files[name]))
		h.Write(files[name])
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// liveRun is what the script's uncrashed peer saw at each height h: the
// header hash of block h, and the state hash and commit hash after h blocks.
type liveRun struct {
	headers, states, commits [][]byte
}

// crashScript is one workload the enumerator records.
type crashScript struct {
	name   string
	blocks int
	opts   DurableOptions
	// rot, when set, bit-rots the oldest sealed segment after the run and
	// reopens. "restore": the segment lies below the newest checkpoint, so
	// it is quarantined and the script Restores its range. "truncate": it
	// lies above, so recovery rolls the ledger back through TruncateFrom
	// and the script recommits the range.
	rot string
}

var crashScripts = []crashScript{
	{name: "rotate", blocks: 20, opts: DurableOptions{SegmentBytes: 4096, CheckpointEvery: 3, Prune: true}},
	{name: "synceach", blocks: 20, opts: DurableOptions{SegmentBytes: 4096, CheckpointEvery: 3, Prune: true, SyncEachBlock: true}},
	{name: "restore", blocks: 12, opts: DurableOptions{SegmentBytes: 4096, CheckpointEvery: 3}, rot: "restore"},
	{name: "truncate", blocks: 12, opts: DurableOptions{SegmentBytes: 4096}, rot: "truncate"},
}

// crashWriter is a build whose writes a run of a script replays; the
// ledger and checkpoints on disk are this build's bytes in each.
type crashWriter struct {
	prefix   string // of the run's name
	oneWrite bool   // each ledger record in one write: the builds before Begin and Finish
	manifest bool   // through manifestFS: the builds that kept a MANIFEST
}

var crashWriters = []crashWriter{
	{prefix: "split-"},
	{prefix: "scan-", oneWrite: true},
	{oneWrite: true, manifest: true},
}

// run drives sc through a recorder in a fresh directory, as w writes, and
// returns the recorded ops, the index of the bootstrap checkpoint's mark
// (states before it hold no state a restart must reproduce) and the live
// values.
func (sc crashScript) run(t *testing.T, f *chainFixture, w crashWriter) ([]fsOp, int, *liveRun) {
	t.Helper()
	blocks := f.smallChain(t, sc.blocks)
	cfg := fabric14(t, f.net, 1, f.pols)
	rec := newRecorder(t.TempDir())
	rec.oneWrite = w.oneWrite
	opts := sc.opts
	opts.FS = rec
	if w.manifest {
		keep := opts.KeepCheckpoints
		if keep <= 0 {
			keep = statedb.DefaultKeepCheckpoints
		}
		opts.FS = &manifestFS{FS: rec, keep: keep}
	}
	p, err := Open(cfg, statedb.NewStore(), rec.root, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Bootstrap: genesis state that only a checkpoint holds.
	p.Engine.Store().Put("genesis", []byte("bootstrap"), block.Version{})
	if err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	rec.mark(crashMark{})
	start := len(rec.ops) - 1
	live := &liveRun{states: [][]byte{statedb.SnapshotHash(p.Engine.Store().Snapshot())}, commits: [][]byte{nil}}
	var m crashMark
	// commit commits b, records the live values of its first commit (a
	// recommit must reproduce them) and marks what is now durable.
	commit := func(b *block.Block) {
		sealed := p.Ledger.Stats().Sealed
		res, err := p.CommitBlock(b)
		if err != nil {
			t.Fatal(err)
		}
		m.committed = res.BlockNum + 1
		if m.committed == uint64(len(live.states)) {
			live.headers = append(live.headers, block.HeaderHash(&b.Header))
			live.states = append(live.states, statedb.SnapshotHash(p.Engine.Store().Snapshot()))
			live.commits = append(live.commits, res.CommitHash)
		} else if !bytes.Equal(res.CommitHash, live.commits[m.committed]) {
			t.Fatalf("recommitted block %d diverges from its first commit", res.BlockNum)
		}
		every := uint64(sc.opts.CheckpointEvery)
		if sc.opts.SyncEachBlock || p.Ledger.Stats().Sealed > sealed || every > 0 && m.committed%every == 0 {
			m.durable = m.committed
		}
		rec.mark(m)
	}
	for _, b := range blocks {
		commit(b)
	}
	if sc.rot != "" {
		stored := make([]*block.Block, len(blocks))
		for n := range stored {
			if stored[n], err = p.Ledger.Get(uint64(n)); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
		if sc.rot == "truncate" {
			// The bootstrap checkpoint is the only one, so the rotten
			// segment holds block 0 and recovery rolls the ledger back to
			// it: from the rot on a crash need reach no height.
			m = crashMark{}
			rec.mark(m)
		}
		path, err := chaos.CorruptSealedSegment(rec.root)
		if err != nil {
			t.Fatal(err)
		}
		if err := rec.adopt(path); err != nil {
			t.Fatal(err)
		}
		if p, err = Open(cfg, statedb.NewStore(), rec.root, opts); err != nil {
			t.Fatal(err)
		}
		missing := p.Ledger.MissingRanges()
		switch sc.rot {
		case "restore":
			if len(missing) != 1 {
				t.Fatalf("reopen after bit rot left missing ranges %v, want one", missing)
			}
			for n := missing[0].First; n < missing[0].First+missing[0].Count; n++ {
				if err := p.Ledger.Restore(stored[n]); err != nil {
					t.Fatal(err)
				}
			}
			rec.mark(m) // the finished restore is a state of its own
		case "truncate":
			if p.Height() != 0 || len(missing) != 0 {
				t.Fatalf("reopen after bit rot at height %d with missing ranges %v, want the ledger rolled back to 0",
					p.Height(), missing)
			}
			for _, b := range blocks {
				commit(b)
			}
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	return rec.ops, start, live
}

// smallChain is chain with one transaction per block, so that a 4 KiB
// segment holds a few blocks and a checkpoint finds unsynced records.
func (f *chainFixture) smallChain(t *testing.T, n int) []*block.Block {
	t.Helper()
	var out []*block.Block
	var prev []byte
	for bn := uint64(0); bn < uint64(n); bn++ {
		env, err := block.NewEndorsedEnvelope(block.TxSpec{
			Creator: f.client, Chaincode: "cc", Channel: "ch",
			RWSet:     block.RWSet{Writes: []block.KVWrite{{Key: fmt.Sprintf("acct%d", bn%3), Value: []byte{byte(bn)}}}},
			Endorsers: []*identity.Identity{f.end},
		})
		if err != nil {
			t.Fatal(err)
		}
		b, err := block.NewBlock(bn, prev, []block.Envelope{*env}, f.orderer)
		if err != nil {
			t.Fatal(err)
		}
		prev = block.HeaderHash(&b.Header)
		out = append(out, b)
	}
	return out
}

// TestCrashStates records each crash script and checks the peer recovers
// from every disk a crash could leave: Open succeeds; the recovered blocks
// are a prefix of the live chain; the height reaches the mode's floor; the
// state hash and the last commit hash equal the live run's at that height
// (so the prune anchor survives); and no temp or restore file survives the
// reopen. Disks that are byte-identical are checked once, with the highest
// floor among them. Each script runs three times (crashWriters): under
// split-<script> as this build writes, each ledger record in two writes;
// under scan-<script> with each record in one write, as the builds before
// the split wrote; and under its bare name also through manifestFS, as the
// builds that kept a MANIFEST wrote. The two older runs keep the names
// their states always had. Subtests are named <run>/<k>/<mode>, crash
// right after op k; run one with -run to replay it.
func TestCrashStates(t *testing.T) {
	f := newChainFixture(t)
	cfg := fabric14(t, f.net, 1, f.pols)
	for _, sc := range crashScripts {
		for _, w := range crashWriters {
			t.Run(w.prefix+sc.name, func(t *testing.T) { checkCrashStates(t, cfg, f, sc, w) })
		}
	}
}

// checkCrashStates records one run of sc as w writes and checks each of
// its distinct crash states.
func checkCrashStates(t *testing.T, cfg pipeline.Config, f *chainFixture, sc crashScript, w crashWriter) {
	ops, start, live := sc.run(t, f, w)
	type state struct {
		k     int
		mode  string
		floor uint64
	}
	byDisk := map[[sha256.Size]byte]state{}
	for k := start; k < len(ops); k++ {
		for _, mode := range crashModes {
			files, torn, ok := disk(ops, k, mode)
			if !ok {
				continue
			}
			s := state{k, mode, floor(ops, k, mode, torn)}
			d := digest(files)
			if old, seen := byDisk[d]; !seen || s.floor >= old.floor {
				byDisk[d] = s
			}
		}
	}
	states := make([]state, 0, len(byDisk))
	for _, s := range byDisk {
		states = append(states, s)
	}
	sort.Slice(states, func(i, j int) bool {
		return states[i].k < states[j].k || states[i].k == states[j].k && states[i].mode < states[j].mode
	})
	perMode := map[string]int{}
	for _, s := range states {
		perMode[s.mode]++
	}
	t.Logf("%d ops, %d distinct crash states checked: %v", len(ops)-start, len(states), perMode)
	scratch := t.TempDir()
	for _, s := range states {
		t.Run(fmt.Sprintf("%d/%s", s.k, s.mode), func(t *testing.T) {
			files, _, _ := disk(ops, s.k, s.mode)
			dir := filepath.Join(scratch, "state")
			if err := os.RemoveAll(dir); err != nil {
				t.Fatal(err)
			}
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			for name, data := range files {
				if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			checkRecovered(t, cfg, dir, sc.opts, live, s.floor)
		})
	}
}

// checkRecovered reopens the peer in dir and checks it against the live run.
func checkRecovered(t *testing.T, cfg pipeline.Config, dir string, opts DurableOptions, live *liveRun, floor uint64) {
	t.Helper()
	p, err := Open(cfg, statedb.NewStore(), dir, opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer p.Close()
	h := p.Height()
	if h < floor || h > uint64(len(live.headers)) {
		t.Fatalf("recovered height %d, want %d..%d (warnings %q)", h, floor, len(live.headers), p.Ledger.Warnings())
	}
	for n := p.Ledger.Base(); n < h; n++ {
		b, err := p.Ledger.Get(n)
		if errors.Is(err, ledger.ErrMissing) {
			continue
		}
		if err != nil {
			t.Fatalf("block %d: %v", n, err)
		}
		if !bytes.Equal(block.HeaderHash(&b.Header), live.headers[n]) {
			t.Fatalf("block %d is not the live chain's", n)
		}
	}
	if !bytes.Equal(statedb.SnapshotHash(p.Engine.Store().Snapshot()), live.states[h]) {
		t.Fatalf("state at height %d diverges from the live run's (warnings %q)", h, p.Ledger.Warnings())
	}
	if !bytes.Equal(p.Ledger.LastCommitHash(), live.commits[h]) {
		t.Fatalf("commit hash at height %d diverges from the live run's", h)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") || strings.HasSuffix(e.Name(), ".restore") {
			t.Errorf("%s survived the reopen", e.Name())
		}
	}
}
