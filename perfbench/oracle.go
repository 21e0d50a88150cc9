package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"umine"
	"umine/internal/core"
)

// The correctness oracle. Every /mine body was hashed on receipt; off the
// clock, each is compared with the hash of WriteResultsJSON of a direct
// MineWith on the snapshot the reply names (its dataset version). For a
// dataset that took ingests, the snapshot is rebuilt from the base database
// plus the ingested batches in the order of the versions the ingests
// created — the server's own append order.
type oracle struct {
	base    *core.Database
	name    string                    // the served dataset's name
	workers int                       // concurrent reference mines, each serial
	batches func(i int) [][]core.Unit // ingest batch contents by index
	want    map[string][32]byte       // expected hash by snapshot key + query
}

func newOracle(base *core.Database, name string, workers int, batches func(int) [][]core.Unit) *oracle {
	return &oracle{base: base, name: name, workers: workers, batches: batches, want: map[string][32]byte{}}
}

// check marks every failed sample of a window — a transport or HTTP error,
// or a mine whose body differs from the direct mine's — and returns the
// number of failures. base is the dataset version at registration.
func (o *oracle) check(samples []sample, base uint64) (int, error) {
	// The batch each version appended.
	byVersion := map[uint64]int{}
	for _, s := range samples {
		if s.kind == opIngest && s.err == "" {
			byVersion[s.version] = s.batch
		}
	}
	failed := 0
	keys := make([]string, len(samples))
	var jobs []job
	queued := map[string]bool{}
	for i := range samples {
		s := &samples[i]
		if s.err != "" {
			failed++
			continue
		}
		if s.kind != opMine {
			continue
		}
		key, ok := snapshotKey(byVersion, base, s.version)
		if !ok {
			s.err = fmt.Sprintf("no ingest record for a version up to %d", s.version)
			failed++
			continue
		}
		keys[i] = key + "|" + s.q.String()
		if _, done := o.want[keys[i]]; !done && !queued[keys[i]] {
			queued[keys[i]] = true
			jobs = append(jobs, job{snapshot: key, q: s.q, key: keys[i]})
		}
	}
	if err := o.run(jobs); err != nil {
		return failed, err
	}
	for i := range samples {
		s := &samples[i]
		if keys[i] == "" || s.err != "" {
			continue
		}
		if s.hash != o.want[keys[i]] {
			s.err = fmt.Sprintf("%s at version %d: body differs from the direct mine", s.q, s.version)
			failed++
		}
	}
	return failed, nil
}

// job is one reference mine: q on the snapshot named by snapshot.
type job struct {
	snapshot, key string
	q             query
}

// run computes the expected hashes of jobs on o.workers goroutines.
func (o *oracle) run(jobs []job) error {
	dbs := map[string]*core.Database{}
	for _, j := range jobs {
		if _, ok := dbs[j.snapshot]; !ok {
			db, err := o.snapshot(j.snapshot)
			if err != nil {
				return err
			}
			dbs[j.snapshot] = db
		}
	}
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	next := make(chan job)
	for w := 0; w < max(o.workers, 1); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range next {
				h, err := expected(dbs[j.snapshot], j.q)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				o.want[j.key] = h
				mu.Unlock()
			}
		}()
	}
	for _, j := range jobs {
		next <- j
	}
	close(next)
	wg.Wait()
	return firstErr
}

// snapshotKey names the snapshot at version v: the batches applied since
// registration, in version order.
func snapshotKey(byVersion map[uint64]int, base, v uint64) (string, bool) {
	if v < base {
		return "", false
	}
	var sb strings.Builder
	for x := base + 1; x <= v; x++ {
		b, ok := byVersion[x]
		if !ok {
			return "", false
		}
		sb.WriteString(strconv.Itoa(b))
		sb.WriteByte(',')
	}
	return sb.String(), true
}

func (o *oracle) snapshot(key string) (*core.Database, error) {
	if key == "" {
		return o.base, nil
	}
	b := core.NewBuilder(o.name)
	b.AddDatabase(o.base)
	for _, f := range strings.Split(strings.TrimSuffix(key, ","), ",") {
		i, err := strconv.Atoi(f)
		if err != nil {
			return nil, err
		}
		for _, units := range o.batches(i) {
			if err := b.Add(units); err != nil {
				return nil, fmt.Errorf("rebuild snapshot: %w", err)
			}
		}
	}
	return b.Build(), nil
}

// expected is the hash of the direct mine's JSON document.
func expected(db *core.Database, q query) ([32]byte, error) {
	rs, err := umine.MineWith(q.Algo, db, q.Th, umine.Options{Workers: 1})
	if err != nil {
		return [32]byte{}, fmt.Errorf("oracle mine %s: %w", q, err)
	}
	var buf bytes.Buffer
	if err := umine.WriteResultsJSON(&buf, rs); err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(buf.Bytes()), nil
}
