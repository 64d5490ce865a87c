package serve

import (
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"strings"

	"fadewich/internal/wire"
)

// promWriter accumulates Prometheus text-exposition output without any
// client-library dependency: the format is three line shapes (# HELP,
// # TYPE, sample), which is not worth a module for — and the repo's
// no-new-dependencies stance settles it.
type promWriter struct {
	b strings.Builder
}

// metric emits the HELP/TYPE preamble of one metric family.
func (p *promWriter) metric(name, typ, help string) {
	fmt.Fprintf(&p.b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// sample emits one unlabelled sample.
func (p *promWriter) sample(name string, v float64) {
	p.b.WriteString(name)
	p.b.WriteByte(' ')
	p.b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	p.b.WriteByte('\n')
}

// labelled emits one sample with a single office label. Label values
// are office names from the spec; escape the three characters the
// format reserves.
func (p *promWriter) labelled(name, office string, v float64) {
	esc := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`).Replace(office)
	fmt.Fprintf(&p.b, "%s{office=%q} %s\n", name, esc, strconv.FormatFloat(v, 'g', -1, 64))
}

// kind emits one sample with a single kind label (fixed, trusted
// values — no escaping needed).
func (p *promWriter) kind(name, kind string, v float64) {
	fmt.Fprintf(&p.b, "%s{kind=%q} %s\n", name, kind, strconv.FormatFloat(v, 'g', -1, 64))
}

// handleMetrics renders the dependency-free GET /metrics endpoint: the
// counters the stream, segment and TCP layers already expose via
// Stats(), plus the reconcile loop's gauges. Counter values are exact
// snapshots of the corresponding Stats() numbers — the metrics test
// holds them equal in a quiesced state.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var p promWriter
	st := s.ing.Stats()
	tot := st.Totals()
	rst, reports := s.rec.Status()

	// The standard build-info idiom: a constant-1 gauge whose labels
	// carry the facts that shape this instance's serving — the Go
	// runtime, and the wire codec and compression of its segment log
	// and forward stream — so dashboards can tell instances apart.
	codec := s.cfg.Codec
	if codec == 0 {
		codec = wire.V1JSONL
	}
	p.metric("fadewich_build_info", "gauge", "Constant 1; labels describe the running build (go = Go runtime, codec = wire codec and compress = frame compression of the segment log and forward stream).")
	fmt.Fprintf(&p.b, "fadewich_build_info{go=%q,codec=\"%d\",compress=\"%t\"} 1\n", runtime.Version(), uint8(codec), s.cfg.Compress)

	p.metric("fadewich_ingest_pushed_ticks_total", "counter", "Ticks accepted into office queues, including retired offices.")
	p.sample("fadewich_ingest_pushed_ticks_total", float64(tot.Pushed))
	p.metric("fadewich_ingest_dispatched_ticks_total", "counter", "Ticks delivered to the fleet, including retired offices.")
	p.sample("fadewich_ingest_dispatched_ticks_total", float64(tot.Dispatched))
	p.metric("fadewich_ingest_dropped_ticks_total", "counter", "Ticks lost to backpressure policy or office retirement.")
	p.sample("fadewich_ingest_dropped_ticks_total", float64(tot.Dropped))
	p.metric("fadewich_ingest_queue_depth", "gauge", "Ticks currently queued across live offices.")
	p.sample("fadewich_ingest_queue_depth", float64(tot.Depth))
	p.metric("fadewich_ingest_batches_total", "counter", "Dispatch cycles that delivered work to the fleet.")
	p.sample("fadewich_ingest_batches_total", float64(st.Batches))
	p.metric("fadewich_ingest_actions_total", "counter", "Merged actions produced by dispatched batches.")
	p.sample("fadewich_ingest_actions_total", float64(st.Actions))
	p.metric("fadewich_office_queue_depth", "gauge", "Ticks currently queued per office.")
	p.metric("fadewich_office_pushed_ticks_total", "counter", "Ticks accepted per office.")
	names := make(map[int]string)
	for _, rep := range reports {
		names[rep.ID] = rep.Name
	}
	for _, o := range st.Offices {
		name, ok := names[o.Office]
		if !ok {
			name = strconv.Itoa(o.Office)
		}
		p.labelled("fadewich_office_queue_depth", name, float64(o.Depth))
	}
	for _, o := range st.Offices {
		name, ok := names[o.Office]
		if !ok {
			name = strconv.Itoa(o.Office)
		}
		p.labelled("fadewich_office_pushed_ticks_total", name, float64(o.Pushed))
	}

	p.metric("fadewich_offices_desired", "gauge", "Office count of the last valid fleet spec.")
	p.sample("fadewich_offices_desired", float64(rst.DesiredOffices))
	p.metric("fadewich_offices_live", "gauge", "Current fleet membership.")
	p.sample("fadewich_offices_live", float64(rst.LiveOffices))
	p.metric("fadewich_spec_generation", "gauge", "Observed revisions of the fleet-spec content.")
	p.sample("fadewich_spec_generation", float64(rst.SpecGeneration))
	p.metric("fadewich_spec_generation_lag", "gauge", "Generations the oldest live office trails the spec.")
	p.sample("fadewich_spec_generation_lag", float64(rst.GenerationLag))
	p.metric("fadewich_reconciles_total", "counter", "Applied reconcile iterations (no-ops excluded).")
	p.sample("fadewich_reconciles_total", float64(rst.Reconciles))
	p.metric("fadewich_reconcile_errors_total", "counter", "Reconcile iterations that failed validation or apply.")
	p.sample("fadewich_reconcile_errors_total", float64(rst.Errors))
	p.metric("fadewich_reconcile_last_duration_seconds", "gauge", "Wall-clock cost of the last applied reconcile.")
	p.sample("fadewich_reconcile_last_duration_seconds", rst.LastDuration.Seconds())

	frames, actions, overflows := s.bcast.Stats()
	p.metric("fadewich_actions_subscribers", "gauge", "Connected /v1/actions consumers.")
	p.sample("fadewich_actions_subscribers", float64(s.bcast.Subscribers()))
	p.metric("fadewich_actions_frames_total", "counter", "Action batches broadcast to subscribers.")
	p.sample("fadewich_actions_frames_total", float64(frames))
	p.metric("fadewich_actions_broadcast_total", "counter", "Actions carried by broadcast frames.")
	p.sample("fadewich_actions_broadcast_total", float64(actions))
	p.metric("fadewich_actions_overflows_total", "counter", "Subscribers dropped for falling behind their frame buffer.")
	p.sample("fadewich_actions_overflows_total", float64(overflows))

	// Bytes-moved accounting, one family across the byte-producing
	// sinks: logical is the uncompressed-equivalent frame size, wire is
	// what actually hit the disk, socket or subscriber channel.
	// logical/wire is each kind's compression ratio.
	bcLogical, bcWire := s.bcast.ByteStats()
	p.metric("fadewich_logical_bytes_total", "counter", "Uncompressed-equivalent frame bytes produced, by sink kind.")
	p.metric("fadewich_wire_bytes_total", "counter", "Frame bytes actually written, by sink kind.")
	type byteRow struct {
		kind           string
		logical, wired float64
	}
	rows := []byteRow{{kind: "broadcast", logical: float64(bcLogical), wired: float64(bcWire)}}
	if s.seg != nil {
		sst := s.seg.Stats()
		rows = append(rows, byteRow{kind: "segment", logical: float64(sst.Bytes), wired: float64(sst.WireBytes)})
	}
	if s.fwd != nil {
		fst := s.fwd.Stats()
		rows = append(rows, byteRow{kind: "forward", logical: float64(fst.Bytes), wired: float64(fst.WireBytes)})
	}
	for _, row := range rows {
		p.kind("fadewich_logical_bytes_total", row.kind, row.logical)
	}
	for _, row := range rows {
		p.kind("fadewich_wire_bytes_total", row.kind, row.wired)
	}

	if s.seg != nil {
		sst := s.seg.Stats()
		p.metric("fadewich_segment_frames_total", "counter", "Frames appended to the segment log by this writer generation.")
		p.sample("fadewich_segment_frames_total", float64(sst.Frames))
		p.metric("fadewich_segment_bytes_total", "counter", "Logical (uncompressed-equivalent) bytes appended to the segment log by this writer generation; fadewich_wire_bytes_total{kind=\"segment\"} is the on-disk count.")
		p.sample("fadewich_segment_bytes_total", float64(sst.Bytes))
		p.metric("fadewich_segment_syncs_total", "counter", "fsync calls on segment files.")
		p.sample("fadewich_segment_syncs_total", float64(sst.Syncs))
		p.metric("fadewich_segment_sealed_segments", "gauge", "Sealed segments in the directory manifest.")
		p.sample("fadewich_segment_sealed_segments", float64(sst.Sealed))
		var sealedFrames, sealedBytes int64
		for _, info := range s.seg.Sealed() {
			sealedFrames += int64(info.Frames)
			sealedBytes += info.Bytes
		}
		p.metric("fadewich_segment_sealed_frames_total", "counter", "Frames in sealed segments, per the directory manifest.")
		p.sample("fadewich_segment_sealed_frames_total", float64(sealedFrames))
		p.metric("fadewich_segment_sealed_bytes_total", "counter", "Bytes in sealed segments, per the directory manifest.")
		p.sample("fadewich_segment_sealed_bytes_total", float64(sealedBytes))
	}

	if s.maintStop != nil {
		p.metric("fadewich_segment_maintenance_passes_total", "counter", "Completed segment-maintenance passes.")
		p.sample("fadewich_segment_maintenance_passes_total", float64(s.maint.passes.Load()))
		p.metric("fadewich_segment_maintenance_errors_total", "counter", "Segment-maintenance passes that failed.")
		p.sample("fadewich_segment_maintenance_errors_total", float64(s.maint.errors.Load()))
		p.metric("fadewich_segment_compacted_segments_total", "counter", "Sealed segments rewritten into compressed frames.")
		p.sample("fadewich_segment_compacted_segments_total", float64(s.maint.compactedSegments.Load()))
		p.metric("fadewich_segment_compacted_bytes_saved_total", "counter", "On-disk bytes reclaimed by compaction.")
		p.sample("fadewich_segment_compacted_bytes_saved_total", float64(s.maint.compactedBytesSaved.Load()))
		p.metric("fadewich_segment_retained_segments_total", "counter", "Sealed segments deleted by TTL retention.")
		p.sample("fadewich_segment_retained_segments_total", float64(s.maint.retainedSegments.Load()))
		p.metric("fadewich_segment_retained_bytes_total", "counter", "On-disk bytes deleted by TTL retention.")
		p.sample("fadewich_segment_retained_bytes_total", float64(s.maint.retainedBytes.Load()))
		p.metric("fadewich_segment_replicated_segments_total", "counter", "Sealed segments shipped to the replica directory.")
		p.sample("fadewich_segment_replicated_segments_total", float64(s.maint.replicatedSegments.Load()))
		p.metric("fadewich_segment_replicated_bytes_total", "counter", "Bytes shipped to the replica directory.")
		p.sample("fadewich_segment_replicated_bytes_total", float64(s.maint.replicatedBytes.Load()))
	}

	if s.fwd != nil {
		fst := s.fwd.Stats()
		p.metric("fadewich_forward_frames_total", "counter", "Frames delivered to the TCP forward peer.")
		p.sample("fadewich_forward_frames_total", float64(fst.Frames))
		p.metric("fadewich_forward_attempts_total", "counter", "Frame write attempts to the forward peer, including retries.")
		p.sample("fadewich_forward_attempts_total", float64(fst.Attempts))
		p.metric("fadewich_forward_redials_total", "counter", "Forward connections re-established after a loss.")
		p.sample("fadewich_forward_redials_total", float64(fst.Redials))
		p.metric("fadewich_forward_dial_failures_total", "counter", "Failed forward dial attempts.")
		p.sample("fadewich_forward_dial_failures_total", float64(fst.DialFailures))
		p.metric("fadewich_forward_write_failures_total", "counter", "Failed forward write attempts.")
		p.sample("fadewich_forward_write_failures_total", float64(fst.WriteFailures))
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	fmt.Fprint(w, p.b.String())
}
