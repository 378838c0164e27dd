package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ingest"
)

// sameOutputs is gate (a): a full retrain must reproduce the last
// incremental snapshot's forecasts and statuses exactly, including the
// set of vehicles whose training or forecast failed.
func sameOutputs(incr, full *engine.Snapshot) error {
	if len(incr.ForecastByID) != len(full.ForecastByID) {
		return fmt.Errorf("gate (a): incremental snapshot has %d forecasts, full retrain %d", len(incr.ForecastByID), len(full.ForecastByID))
	}
	for _, id := range sortedIDs(incr.ForecastByID) {
		a, ok := full.ForecastByID[id]
		if !ok {
			return fmt.Errorf("gate (a): vehicle %s has an incremental forecast but none after the full retrain", id)
		}
		if b := incr.ForecastByID[id]; a != b {
			return fmt.Errorf("gate (a): vehicle %s forecast differs: incremental %+v, full %+v", id, b, a)
		}
	}
	if len(incr.StatusByID) != len(full.StatusByID) {
		return fmt.Errorf("gate (a): incremental snapshot has %d statuses, full retrain %d", len(incr.StatusByID), len(full.StatusByID))
	}
	for _, id := range sortedIDs(incr.StatusByID) {
		if a, b := incr.StatusByID[id], full.StatusByID[id]; !sameStatus(a, b) {
			return fmt.Errorf("gate (a): vehicle %s status differs: incremental %+v, full %+v", id, a, b)
		}
	}
	if err := sameStrings("failed vehicles", incr.FailedVehicles, full.FailedVehicles); err != nil {
		return err
	}
	return sameStrings("forecast errors", incr.ForecastErrors, full.ForecastErrors)
}

func sameStatus(a, b core.VehicleStatus) bool {
	mreEqual := a.ValidationMRE == b.ValidationMRE || (math.IsNaN(a.ValidationMRE) && math.IsNaN(b.ValidationMRE))
	return mreEqual && a.ID == b.ID && a.Category == b.Category && a.Strategy == b.Strategy &&
		a.Algorithm == b.Algorithm && a.Donor == b.Donor && a.Err == b.Err
}

func sameStrings(what string, a, b map[string]string) error {
	if len(a) != len(b) {
		return fmt.Errorf("gate (a): %s differ: incremental %v, full %v", what, a, b)
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return fmt.Errorf("gate (a): %s differ for %s: incremental %q, full %q", what, k, v, w)
		}
	}
	return nil
}

func sortedIDs[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// checkAcked is gate (c), and the content half of gate (d): every
// acknowledged report is in the store with the value sent, and, given
// a snapshot, that snapshot's forecast for the vehicle covers the
// reported day.
func checkAcked(gate string, store *ingest.Store, snap *engine.Snapshot, acks []ackedReport) error {
	for _, a := range acks {
		start, u, ok := store.RawSeries(a.vehicle)
		if !ok {
			return fmt.Errorf("%s: acked report of %s for %s: vehicle missing from the store", gate, a.vehicle, a.date.Format("2006-01-02"))
		}
		i := int(a.date.Sub(start) / (24 * time.Hour))
		if i < 0 || i >= len(u) || u[i] != a.seconds {
			return fmt.Errorf("%s: acked report of %s for %s (%.0f s) is not in the store", gate, a.vehicle, a.date.Format("2006-01-02"), a.seconds)
		}
		if snap == nil {
			continue
		}
		f, ok := snap.ForecastByID[a.vehicle]
		if !ok || f.AsOfDay < a.day {
			return fmt.Errorf("%s: final forecast of %s is as of day %d, before acked day %d", gate, a.vehicle, f.AsOfDay, a.day)
		}
	}
	return nil
}

// checkReopened is gate (d): the store reopened from its WAL holds
// exactly the content the running store had (equal per-vehicle content
// hashes) and every acknowledged report.
func checkReopened(before map[string]uint64, reopened *ingest.Store, acks []ackedReport) error {
	ids := reopened.Vehicles()
	if len(ids) != len(before) {
		return fmt.Errorf("gate (d): %d vehicles before close, %d after reopening", len(before), len(ids))
	}
	for _, id := range ids {
		h, _ := reopened.Hash(id)
		if want, ok := before[id]; !ok || h != want {
			return fmt.Errorf("gate (d): vehicle %s content hash %016x after reopening, %016x before close", id, h, want)
		}
	}
	return checkAcked("gate (d)", reopened, nil, acks)
}
