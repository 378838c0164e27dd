package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ingest"
	"repro/internal/telematics"
)

// donorHandler serves one partitioned store's old vehicles as a
// DonorSet — the same shape serve.(*Server).handleDonors produces (the
// HTTP-layer test lives in internal/serve; this keeps the protocol
// testable at the cluster level without an import cycle).
func donorHandler(t testing.TB, store *ingest.Store) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fleet, err := store.Fleet(r.Context())
		if err != nil {
			t.Errorf("donor fleet: %v", err)
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		out := DonorSet{Vehicles: []DonorSeries{}}
		for _, v := range fleet {
			if core.Categorize(v.Series) != core.Old {
				continue
			}
			start, u, ok := store.RawSeries(v.Series.ID)
			if !ok {
				continue
			}
			out.Vehicles = append(out.Vehicles, DonorSeries{ID: v.Series.ID, Start: start.Format("2006-01-02"), U: u})
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(out)
	})
}

// exchangeCluster is a partitioned cluster beside its unsharded
// reference: three shards whose stores hold ONLY their ring-owned
// vehicles, each assembling its donor pool over HTTP from its peers,
// and one engine over a store holding the whole fleet.
type exchangeCluster struct {
	full    *ingest.Store
	single  *engine.Engine
	stores  map[string]*ingest.Store
	engines []*engine.Engine // in ShardNames order
}

// newExchangeCluster seeds the raw fleet plus the extra reports, each
// vehicle into the unsharded store and its ring owner's store only.
func newExchangeCluster(t *testing.T, raw *telematics.Fleet, extra []ingest.Report) *exchangeCluster {
	t.Helper()
	names := ShardNames(3)
	ring, err := NewRingOf(0, names...)
	if err != nil {
		t.Fatal(err)
	}
	allowance := raw.Config.Allowance
	seed := func(owns func(id string) bool) *ingest.Store {
		st := ingest.New(allowance)
		owned := &telematics.Fleet{Config: raw.Config}
		for _, v := range raw.Vehicles {
			if owns(v.Profile.ID) {
				owned.Vehicles = append(owned.Vehicles, v)
			}
		}
		if len(owned.Vehicles) > 0 {
			if _, err := st.SeedFromFleet(owned); err != nil {
				t.Fatal(err)
			}
		}
		var reports []ingest.Report
		for _, r := range extra {
			if owns(r.VehicleID) {
				reports = append(reports, r)
			}
		}
		if _, err := st.UpsertBatch(reports); err != nil {
			t.Fatal(err)
		}
		return st
	}

	c := &exchangeCluster{full: seed(func(string) bool { return true }), stores: make(map[string]*ingest.Store, len(names))}
	c.single, err = engine.New(engine.Config{Predictor: fastPredictorConfig(), Workers: 4, Source: c.full.Fleet})
	if err != nil {
		t.Fatal(err)
	}
	urls := make(map[string]string, len(names))
	for _, name := range names {
		c.stores[name] = seed(func(id string) bool { return ring.Owner(id) == name })
		srv := httptest.NewServer(donorHandler(t, c.stores[name]))
		t.Cleanup(srv.Close)
		urls[name] = srv.URL
	}
	for _, name := range names {
		var peers []string
		for _, other := range names {
			if other != name {
				peers = append(peers, urls[other])
			}
		}
		eng, err := engine.New(engine.Config{
			Predictor: fastPredictorConfig(),
			Workers:   2,
			Source:    DonorExchangeSource(c.stores[name].Fleet, peers, allowance, nil),
		})
		if err != nil {
			t.Fatal(err)
		}
		c.engines = append(c.engines, eng)
	}
	return c
}

// retrain rebuilds the unsharded reference and every shard from their
// sources and returns the reference snapshot.
func (c *exchangeCluster) retrain(t *testing.T) *engine.Snapshot {
	t.Helper()
	want, err := c.single.RetrainFromSource(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range c.engines {
		if _, err := eng.RetrainFromSource(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	return want
}

// TestDonorExchangeBitIdentical is the partitioned-telemetry
// acceptance contract at the engine level: three shards whose stores
// hold ONLY their ring-owned vehicles (~1/N of the raw telemetry),
// with donor pools assembled over the wire from their peers, must
// produce forecasts and statuses bit-identical to one unsharded engine
// over the union store.
func TestDonorExchangeBitIdentical(t *testing.T) {
	cfg := telematics.DefaultFleetConfig()
	cfg.Vehicles = 24
	cfg.Days = 900
	raw, err := telematics.GenerateFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := newExchangeCluster(t, raw, nil)

	// Raw telemetry must genuinely partition: no shard holds the fleet.
	totalVehicles := 0
	for name, st := range c.stores {
		n := len(st.Vehicles())
		if n == len(raw.Vehicles) {
			t.Fatalf("shard %s stores the whole fleet — telemetry not partitioned", name)
		}
		totalVehicles += n
	}
	if totalVehicles != len(raw.Vehicles) {
		t.Fatalf("shard stores hold %d vehicles total, want a disjoint %d", totalVehicles, len(raw.Vehicles))
	}

	want := c.retrain(t)
	assertExchangeMatches(t, c.engines, want)
}

// assertExchangeMatches merges the shard engines' snapshots and
// compares them with the unsharded build: forecasts byte for byte as
// served (JSON), statuses field by field.
func assertExchangeMatches(t *testing.T, engines []*engine.Engine, want *engine.Snapshot) {
	t.Helper()
	var got []core.Forecast
	gotStatuses := make(map[string]core.VehicleStatus)
	for _, eng := range engines {
		snap := eng.Snapshot()
		got = append(got, snap.Forecasts...)
		for id, st := range snap.StatusByID {
			gotStatuses[id] = st
		}
	}
	sortForecasts(got)
	if len(got) != len(want.Forecasts) {
		t.Fatalf("merged forecasts %d, want %d", len(got), len(want.Forecasts))
	}
	gotJSON, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(want.Forecasts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON, wantJSON) {
		for i, f := range got {
			if w := want.Forecasts[i]; f.VehicleID != w.VehicleID || f.AsOfDay != w.AsOfDay ||
				!sameFloat(f.DaysLeft, w.DaysLeft) || !f.DueDate.Equal(w.DueDate) ||
				f.Category != w.Category || f.Strategy != w.Strategy {
				t.Errorf("forecast %d differs:\nexchange  %+v\nunsharded %+v", i, f, w)
			}
		}
		t.Fatal("merged forecasts are not byte-identical to the unsharded build")
	}
	if len(gotStatuses) != len(want.StatusByID) {
		t.Fatalf("merged statuses cover %d vehicles, want %d", len(gotStatuses), len(want.StatusByID))
	}
	for id, st := range gotStatuses {
		w := want.StatusByID[id]
		if st.Category != w.Category || st.Strategy != w.Strategy || st.Algorithm != w.Algorithm ||
			st.Donor != w.Donor || !sameFloat(st.ValidationMRE, w.ValidationMRE) || st.Err != w.Err {
			t.Errorf("vehicle %s status differs:\nexchange  %+v\nunsharded %+v", id, st, w)
		}
	}
}

// TestDonorExchangeOldDayKeepsPeersYoung: every shard owns young
// (semi-new or new) vehicles that train on the fleet-wide donors. A
// day delivered to one old vehicle long after its first cycle changes
// no donor input, so only the owning shard retrains — that vehicle
// alone — and the peers' next retrains train nothing, while the merged
// forecasts stay byte-identical to an unsharded build.
func TestDonorExchangeOldDayKeepsPeersYoung(t *testing.T) {
	cfg := telematics.DefaultFleetConfig()
	cfg.Vehicles = 12
	cfg.Days = 900
	raw, err := telematics.GenerateFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	names := ShardNames(3)
	ring, err := NewRingOf(0, names...)
	if err != nil {
		t.Fatal(err)
	}

	// Young vehicles end on the fleet's last day. Candidate IDs are
	// taken until every shard owns two new ones (a quarter of the
	// allowance used) and two semi-new ones (three quarters); NewRingOf
	// is deterministic, so this ring assigns owners as the cluster's.
	const youngPerShard = 4
	daily := cfg.Allowance / 60
	owned := make(map[string]int)
	var young []ingest.Report
	for i := 0; len(owned) < len(names) || !allAt(owned, youngPerShard); i++ {
		id := fmt.Sprintf("young%02d", i)
		shard := ring.Owner(id)
		if owned[shard] == youngPerShard {
			continue
		}
		days := 15
		if owned[shard]%2 == 1 {
			days = 45
		}
		owned[shard]++
		first := cfg.Start.AddDate(0, 0, cfg.Days-days)
		for d := 0; d < days; d++ {
			young = append(young, ingest.Report{VehicleID: id, Date: first.AddDate(0, 0, d), Seconds: daily + float64(100*i+d)})
		}
	}
	c := newExchangeCluster(t, raw, young)
	want := c.retrain(t)
	seen := map[core.Category]int{}
	for _, st := range want.Statuses {
		seen[st.Category]++
	}
	if seen[core.Old] == 0 || seen[core.SemiNew] == 0 || seen[core.New] == 0 {
		t.Fatalf("fleet categories %v, want old, semi-new and new", seen)
	}
	assertExchangeMatches(t, c.engines, want)

	// The next day for the first old vehicle, far past its first cycle.
	var dirty *engine.Vehicle
	fleet, err := c.full.Fleet(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i := range fleet {
		if vs := fleet[i].Series; core.Categorize(vs) == core.Old && len(vs.Cycles) > 1 {
			dirty = &fleet[i]
			break
		}
	}
	if dirty == nil {
		t.Fatal("no old vehicle past its first cycle")
	}
	id := dirty.Series.ID
	day := []ingest.Report{{VehicleID: id, Date: dirty.Start.AddDate(0, 0, len(dirty.Series.U)), Seconds: 20000}}
	owner := ring.Owner(id)
	for _, st := range []*ingest.Store{c.full, c.stores[owner]} {
		if _, err := st.UpsertBatch(day); err != nil {
			t.Fatal(err)
		}
	}

	want = c.retrain(t)
	if want.Retrained != 1 {
		t.Errorf("unsharded build retrained %d vehicles, want 1", want.Retrained)
	}
	for i, name := range names {
		snap := c.engines[i].Snapshot()
		wantRetrained := 0
		if name == owner {
			wantRetrained = 1
		}
		if snap.Retrained != wantRetrained {
			t.Errorf("shard %s retrained %d vehicles after %s's day, want %d", name, snap.Retrained, id, wantRetrained)
		}
	}
	assertExchangeMatches(t, c.engines, want)
}

// TestFetchDonorsFiltersNonOld: a peer serving a series that does not
// categorize Old (version skew, misconfiguration) must not poison the
// donor pool — the puller re-derives the category and drops it.
func TestFetchDonorsFiltersNonOld(t *testing.T) {
	fleet := genFleet(t, 6, 900)
	var oldID string
	for _, v := range fleet {
		if core.Categorize(v.Series) == core.Old {
			oldID = v.Series.ID
			break
		}
	}
	if oldID == "" {
		t.Fatal("generated fleet has no old vehicle")
	}

	store := ingest.New(0)
	start := fleet[0].Start
	var reports []ingest.Report
	for _, v := range fleet {
		if v.Series.ID != oldID {
			continue
		}
		for d, sec := range v.Series.U {
			reports = append(reports, ingest.Report{VehicleID: v.Series.ID, Date: v.Start.AddDate(0, 0, d), Seconds: sec})
		}
	}
	// A 10-day newcomer rides along in the donor payload.
	for d := 0; d < 10; d++ {
		reports = append(reports, ingest.Report{VehicleID: "impostor", Date: start.AddDate(0, 0, d), Seconds: 9000})
	}
	if _, err := store.UpsertBatch(reports); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Serve everything, old or not — the malicious/skewed peer.
		out := DonorSet{}
		for _, id := range store.Vehicles() {
			st, u, _ := store.RawSeries(id)
			out.Vehicles = append(out.Vehicles, DonorSeries{ID: id, Start: st.Format("2006-01-02"), U: u})
		}
		_ = json.NewEncoder(w).Encode(out)
	}))
	defer srv.Close()

	donors, err := FetchDonors(context.Background(), nil, srv.URL, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(donors) != 1 || donors[0].Series.ID != oldID {
		ids := make([]string, 0, len(donors))
		for _, d := range donors {
			ids = append(ids, d.Series.ID)
		}
		t.Fatalf("donors = %v, want exactly [%s]", ids, oldID)
	}
	if !donors[0].DonorOnly {
		t.Fatal("fetched donor not marked donor-only")
	}
}

// TestDonorExchangeFailedPeerFailsFetch: a missing peer fails the
// source fetch (a partial donor pool would silently change cold-start
// models) instead of training on it.
func TestDonorExchangeFailedPeerFailsFetch(t *testing.T) {
	fleet := genFleet(t, 4, 900)
	src := DonorExchangeSource(staticSource(fleet), []string{"http://127.0.0.1:1/nope"}, 0, nil)
	if _, err := src(context.Background()); err == nil {
		t.Fatal("fetch with a dead peer succeeded")
	}
}

// allAt reports whether every count in m equals n.
func allAt(m map[string]int, n int) bool {
	for _, v := range m {
		if v != n {
			return false
		}
	}
	return true
}

func sortForecasts(fs []core.Forecast) {
	for i := 1; i < len(fs); i++ {
		for j := i; j > 0 && fs[j-1].VehicleID > fs[j].VehicleID; j-- {
			fs[j-1], fs[j] = fs[j], fs[j-1]
		}
	}
}
