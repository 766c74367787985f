package main

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"approxsort/internal/server"
)

// multiset is an order-independent fingerprint of a key multiset: the
// count plus two sums of independent 64-bit mixes of every key. Equal
// fingerprints of the input and the output, with a sorted output, make
// the output the sorted permutation of the input (up to a 2^-128 chance
// of a colliding wrong answer).
type multiset struct {
	count      int64
	sum1, sum2 uint64
}

func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

func (m *multiset) add(k uint32) {
	h := mix64(uint64(k) + 0x9e3779b97f4a7c15)
	m.count++
	m.sum1 += h
	m.sum2 += mix64(h ^ 0xd1b54a32d192ed03)
}

func fingerprint(keys []uint32) multiset {
	var m multiset
	for _, k := range keys {
		m.add(k)
	}
	return m
}

// checkKeys holds an in-memory job's returned keys to the reference.
func checkKeys(keys []uint32, want multiset) error {
	var got multiset
	for i, k := range keys {
		if i > 0 && k < keys[i-1] {
			return fmt.Errorf("output not sorted at index %d", i)
		}
		got.add(k)
	}
	if got != want {
		return fmt.Errorf("output is not a permutation of the input (%d keys returned, %d sent)", got.count, want.count)
	}
	return nil
}

// checkStream holds a downloaded little-endian uint32 output stream to
// the reference, without materializing it.
func checkStream(r io.Reader, want multiset) error {
	br := bufio.NewReaderSize(r, 1<<16)
	var got multiset
	var word [4]byte
	var prev uint32
	for {
		if _, err := io.ReadFull(br, word[:]); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return fmt.Errorf("reading output: %w", err)
		}
		k := binary.LittleEndian.Uint32(word[:])
		if got.count > 0 && k < prev {
			return fmt.Errorf("output not sorted at record %d", got.count)
		}
		prev = k
		got.add(k)
	}
	if got != want {
		return fmt.Errorf("output is not a permutation of the input (%d records downloaded, %d sent)", got.count, want.count)
	}
	return nil
}

// checkFields requires every field the job class carries today to be
// present, and non-zero where it is structurally non-zero, so a change
// that drops a stage (the memory-system simulation, the baseline, the
// merge ledger) fails the job instead of passing as a speedup.
func checkFields(spec jobSpec, job server.Job) error {
	if job.Status != server.StatusDone {
		return fmt.Errorf("job %s status %q: %s", job.ID, job.Status, job.Error)
	}
	r := job.Result
	if r == nil {
		return fmt.Errorf("job %s has no result", job.ID)
	}
	var missing []string
	need := func(ok bool, field string) {
		if !ok {
			missing = append(missing, field)
		}
	}
	need(r.Verified, "verified")
	need(r.Sorted, "sorted")
	need(r.N == spec.Dataset.N, "n")
	need(r.Algorithm != "", "algorithm")
	need(r.Backend == spec.Backend, "backend")
	need(r.WriteNanos > 0, "write_nanos")
	switch spec.Class {
	case classSort:
		need(r.Mode == server.ModeHybrid || r.Mode == server.ModePrecise, "mode")
		need(r.Plan != nil && r.Plan.Algorithm != "" && r.Plan.PilotSize > 0, "plan")
		need(r.PCMNanos > 0, "pcm_nanos")
		need(r.Writes.Precise > 0, "writes.precise")
		need(r.Writes.Baseline > 0, "writes.baseline")
		need(len(r.Keys) == spec.Dataset.N, "keys")
		if r.Mode == server.ModeHybrid {
			need(r.Writes.Approx > 0, "writes.approx")
			need(r.ActualWR != 0, "actual_wr")
		}
	case classStream:
		need(r.Mode == spec.Mode, "mode")
		need(r.Writes.Precise >= spec.Dataset.N, "writes.precise")
		need(job.OutputBytes == 4*int64(spec.Dataset.N), "output_bytes")
		x := r.Extsort
		need(x != nil, "extsort")
		if x != nil {
			need(x.Records == int64(spec.Dataset.N), "extsort.records")
			need(x.Runs > 1, "extsort.runs")
			need(x.MergePasses > 0, "extsort.merge_passes")
			need(x.DiskBytesWritten > 0, "extsort.disk_bytes_written")
			need(x.FormationWriteNanos > 0, "extsort.formation_write_nanos")
			need(x.MergeWriteNanos > 0, "extsort.merge_write_nanos")
			need(x.RunSize == spec.RunSize && x.FanIn == spec.FanIn, "extsort.geometry")
			if spec.Mode == server.ModeHybrid {
				need(x.RemTilde > 0 && r.Rem == x.RemTilde, "rem")
			}
		}
	case classSharded:
		need(r.Mode == server.ModeHybrid || r.Mode == server.ModePrecise, "mode")
		need(job.OutputBytes == 4*int64(spec.Dataset.N), "output_bytes")
		c := r.Cluster
		need(c != nil, "cluster")
		if c != nil {
			need(c.Records == int64(spec.Dataset.N), "cluster.records")
			need(c.Verified, "cluster.verified")
			need(c.MergeWrites == int64(spec.Dataset.N), "cluster.merge_writes")
			need(c.MergeWriteNanos > 0, "cluster.merge_write_nanos")
			need(c.Plan != nil && c.Plan.Sharded != nil, "cluster.plan")
			need(len(c.Splitters) == len(c.Shards)-1, "cluster.splitters")
			need(!spec.WarmTables || len(c.Shards) < 2 || c.TableWarmed, "cluster.table_warmed")
			need(len(c.Shards) > 0, "cluster.shards")
			for i, sh := range c.Shards {
				need(sh.Verified && sh.JobID != "" && sh.Records > 0 && sh.WriteNanos > 0 && sh.Runs > 0,
					fmt.Sprintf("cluster.shards[%d]", i))
			}
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("job %s: fields missing or zero: %v", job.ID, missing)
	}
	return nil
}
