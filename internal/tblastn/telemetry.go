package tblastn

import (
	"time"

	"fabp/internal/telemetry"
)

// searchMetrics are the package's process-wide instruments, registered
// under tblastn.* on the default telemetry registry so /metrics and the
// bench harness see protein-search traffic next to the nucleotide path.
type searchMetrics struct {
	// searches counts pipeline runs; canceled the ones that exited on a
	// context error.
	searches *telemetry.Counter
	canceled *telemetry.Counter
	// wordLookups/wordHits/extensions/hsps mirror Stats, accumulated
	// across searches.
	wordLookups *telemetry.Counter
	wordHits    *telemetry.Counter
	extensions  *telemetry.Counter
	hsps        *telemetry.Counter
	// indexBuild/scanLatency time BuildIndex and the scan phase.
	indexBuild  *telemetry.Histogram
	scanLatency *telemetry.Histogram
}

func newSearchMetrics(reg *telemetry.Registry) searchMetrics {
	return searchMetrics{
		searches:    reg.Counter("tblastn.searches"),
		canceled:    reg.Counter("tblastn.canceled"),
		wordLookups: reg.Counter("tblastn.word.lookups"),
		wordHits:    reg.Counter("tblastn.word.hits"),
		extensions:  reg.Counter("tblastn.extensions"),
		hsps:        reg.Counter("tblastn.hsps"),
		indexBuild:  reg.Histogram("tblastn.index.build.latency"),
		scanLatency: reg.Histogram("tblastn.scan.latency"),
	}
}

var tm = newSearchMetrics(telemetry.Default())

// observeIndexBuild records one BuildIndex duration.
func observeIndexBuild(d time.Duration) { tm.indexBuild.Observe(d) }
