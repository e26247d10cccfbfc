package wal

import (
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"
)

// BenchmarkLogSync splits the cost of one commit's log sync four ways, on
// raw files with no journal above them: the log appended past its end of
// file (truncated at every checkpoint) or overwritten in place (rewound
// behind a header), synced with fsync or with datasync. Every op writes
// one commit's 1 700 bytes and syncs them; every 25th is followed by a
// checkpoint that writes eight pages to a page file and fsyncs it, then
// ends the lap the discipline's way. sync-p50-us is the median commit
// sync; the checkpoints are not timed.
func BenchmarkLogSync(b *testing.B) {
	for _, log := range []string{"append", "overwrite"} {
		for _, sync := range []string{"fsync", "fdatasync"} {
			b.Run(log+"/"+sync, func(b *testing.B) {
				benchLogSync(b, log == "overwrite", sync == "fdatasync")
			})
		}
	}
}

func benchLogSync(b *testing.B, overwrite, data bool) {
	dir := b.TempDir()
	logf, err := os.OpenFile(filepath.Join(dir, "log"), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		b.Fatal(err)
	}
	defer logf.Close()
	pagef, err := os.OpenFile(filepath.Join(dir, "pages"), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		b.Fatal(err)
	}
	defer pagef.Close()
	syncLog := logf.Sync
	if data {
		syncLog = func() error { return datasync(logf) }
	}
	commit, page := make([]byte, 1700), make([]byte, 8192)
	var end int64
	took := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		commit[0] = byte(i)
		if _, err := logf.WriteAt(commit, end); err != nil {
			b.Fatal(err)
		}
		end += int64(len(commit))
		began := time.Now()
		if err := syncLog(); err != nil {
			b.Fatal(err)
		}
		took = append(took, time.Since(began))
		if (i+1)%25 != 0 {
			continue
		}
		b.StopTimer()
		for p := int64(0); p < 8; p++ {
			if _, err := pagef.WriteAt(page, (int64(i)%64+p)*int64(len(page))); err != nil {
				b.Fatal(err)
			}
		}
		if err := pagef.Sync(); err != nil {
			b.Fatal(err)
		}
		end = 0
		if overwrite {
			_, err = logf.WriteAt(commit[:startRecord], 0)
			end = startRecord
		} else {
			err = logf.Truncate(0)
		}
		if err == nil {
			err = syncLog()
		}
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.StopTimer()
	slices.Sort(took)
	b.ReportMetric(float64(took[len(took)/2].Nanoseconds())/1e3, "sync-p50-us")
}
