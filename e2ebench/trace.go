package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer's public function, recorded from
// the benchmark side. Times are nanoseconds since the tracer's epoch.
// An aggregate span (agg) stands for many short calls of one kind under
// a single parent — a trace writer's WriteKPI calls, a scanner's Next
// calls, an ABR's Decide calls — whose individual spans would cost more
// than the calls themselves: its duration is the summed call time and
// count the number of calls; it has no interval of its own.
type span struct {
	id, parent int32 // parent < 0: a job's root span
	job        int32
	name       string
	start, end int64
	agg        bool
	total      int64
	count      int64
}

func (s *span) dur() int64 {
	if s.agg {
		return s.total
	}
	return s.end - s.start
}

// tracer keeps spans in memory for the length of one traced replay.
// Each fleet job records into its own jobTrace without locking; the
// finished job's spans are merged under the mutex.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	next  int32 // job id dispenser, guarded by mu
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// jobTrace records the spans of one fleet job.
type jobTrace struct {
	t     *tracer
	job   int32
	spans []span
	uses  []linkUse
}

// job opens a job's root span, named "fleet.job".
func (t *tracer) job() *jobTrace {
	t.mu.Lock()
	id := t.next
	t.next++
	t.mu.Unlock()
	j := &jobTrace{t: t, job: id}
	j.begin("fleet.job", -1)
	return j
}

// begin opens a span under parent and returns its local id.
func (j *jobTrace) begin(name string, parent int32) int32 {
	id := int32(len(j.spans))
	j.spans = append(j.spans, span{id: id, parent: parent, job: j.job, name: name, start: j.t.now()})
	return id
}

func (j *jobTrace) end(id int32) { j.spans[id].end = j.t.now() }

// call records fn as a span named name under parent.
func (j *jobTrace) call(name string, parent int32, fn func(id int32) error) error {
	id := j.begin(name, parent)
	err := fn(id)
	j.end(id)
	return err
}

// agg records count calls totalling d under parent.
func (j *jobTrace) agg(name string, parent int32, d time.Duration, count int64) {
	j.spans = append(j.spans, span{id: int32(len(j.spans)), parent: parent, job: j.job,
		name: name, agg: true, total: int64(d), count: count})
}

// use records that the job drove a link configuration for steps.
func (j *jobTrace) use(k linkKey, kind string, steps int64) {
	j.uses = append(j.uses, linkUse{key: k, kind: kind, steps: steps})
}

// done closes the root span and hands the job's spans to the tracer.
func (j *jobTrace) done() {
	j.end(0)
	j.t.mu.Lock()
	j.t.spans = append(j.t.spans, j.spans...)
	j.t.mu.Unlock()
}

// spanKey identifies a span across the merged list.
type spanKey struct{ job, id int32 }

// selfTimes returns each span's self time: its duration minus the part
// its children cover. Interval children are merged before subtracting,
// so overlapping children count once; aggregate children subtract their
// summed call time. Self time never goes below zero.
func selfTimes(spans []span) map[spanKey]int64 {
	kids := map[spanKey][]*span{}
	for i := range spans {
		s := &spans[i]
		if s.parent >= 0 {
			k := spanKey{s.job, s.parent}
			kids[k] = append(kids[k], s)
		}
	}
	self := make(map[spanKey]int64, len(spans))
	for i := range spans {
		s := &spans[i]
		k := spanKey{s.job, s.id}
		if s.agg {
			self[k] = s.total
			continue
		}
		self[k] = s.dur() - covered(s, kids[k])
		if self[k] < 0 {
			self[k] = 0
		}
	}
	return self
}

// covered is the time within parent's interval that children occupy.
func covered(parent *span, children []*span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	var aggs int64
	for _, c := range children {
		if c.agg {
			aggs += c.total
			continue
		}
		a, b := max(c.start, parent.start), min(c.end, parent.end)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var sum, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			sum += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		sum += curB - curA
	}
	return sum + aggs
}

// spanStats summarizes a replay's spans by name.
type spanStats struct {
	self    map[string]int64   // summed self time per span name
	durs    map[string][]int64 // every duration per span name
	counts  map[string]int64   // calls per name (aggregate counts summed)
	jobTime int64              // summed root ("fleet.job") durations
	jobSelf int64              // summed root self time: unattributed
	jobDurs []int64
}

func summarize(spans []span) spanStats {
	self := selfTimes(spans)
	st := spanStats{self: map[string]int64{}, durs: map[string][]int64{}, counts: map[string]int64{}}
	for i := range spans {
		s := &spans[i]
		k := spanKey{s.job, s.id}
		if s.parent < 0 {
			st.jobTime += s.dur()
			st.jobSelf += self[k]
			st.jobDurs = append(st.jobDurs, s.dur())
			continue
		}
		st.self[s.name] += self[k]
		st.durs[s.name] = append(st.durs[s.name], s.dur())
		if s.agg {
			st.counts[s.name] += s.count
		} else {
			st.counts[s.name]++
		}
	}
	return st
}

// unattributedShare is the share of job time no layer span covers.
func (st spanStats) unattributedShare() float64 {
	if st.jobTime == 0 {
		return 0
	}
	return float64(st.jobSelf) / float64(st.jobTime)
}
