package cluster

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"memsnap/internal/core"
	"memsnap/internal/netsvc"
	"memsnap/internal/obs"
	"memsnap/internal/proto"
	"memsnap/internal/replica"
	"memsnap/internal/shard"
)

// TestWritePrometheusWellFormed scrapes a cluster with every component
// that exposes metrics — the service with a recorder, a TCP front, a
// synchronous replica and a tenant sketch — and holds the composed text
// to the format's rules: each family has one # HELP and one # TYPE and
// its samples follow them directly, no family or sample name appears in
// two families, and every histogram's cumulative buckets never decrease
// and end in +Inf equal to its _count.
func TestWritePrometheusWellFormed(t *testing.T) {
	const shards = 2
	c, err := New(Config{
		Machine: core.Options{CPUs: shards, Disks: 2, DiskBytesEach: 64 << 20},
		Shard: shard.Config{
			Shards: shards, RegionBytes: 1 << 18, BatchSize: 4,
			Recorder: obs.NewRecorder(256), Tenants: obs.NewTenantSketch(4),
		},
		Replica: &replica.Config{Mode: replica.Sync},
		Listen:  "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl, err := netsvc.Dial(c.Srv.Addr(), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < 40; i++ {
		q := proto.Request{Kind: proto.KindPut, Tenant: []byte(fmt.Sprintf("t%d", i%3)), Key: []byte(fmt.Sprintf("k%02d", i%10)), Value: uint64(i)}
		if i%4 == 3 {
			q.Kind = proto.KindGet
		}
		if p, err := cl.Do(&q); err != nil || p.Status != proto.StatusOK {
			t.Fatalf("request %d: %+v, %v", i, p, err)
		}
	}

	var buf bytes.Buffer
	if err := c.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	checkExposition(t, buf.String())
	for _, prefix := range []string{"memsnap_shard_", "memsnap_obs_", "memsnap_net_", "memsnap_replica_", "memsnap_follower_", "memsnap_tenant_"} {
		if !strings.Contains(buf.String(), "\n"+prefix) {
			t.Errorf("exposition has no %s* samples", prefix)
		}
	}
}

// checkExposition holds Prometheus text to the rules
// TestWritePrometheusWellFormed names.
func checkExposition(t *testing.T, text string) {
	t.Helper()
	lines := strings.Split(strings.TrimSuffix(text, "\n"), "\n")
	families := map[string]bool{}
	owner := map[string]string{} // sample name -> family
	var fam, typ string
	// Per histogram series (family + labels other than le): the last
	// cumulative bucket count, whether +Inf closed it and whether its
	// _count followed.
	type series struct {
		last         int64
		inf, counted bool
	}
	hists := map[string]*series{}
	for i := 0; i < len(lines); i++ {
		line := lines[i]
		if strings.HasPrefix(line, "# HELP ") {
			fam = strings.Fields(line)[2]
			if families[fam] {
				t.Errorf("line %d: family %s has a second # HELP", i+1, fam)
			}
			families[fam] = true
			if i+1 >= len(lines) || !strings.HasPrefix(lines[i+1], "# TYPE "+fam+" ") {
				t.Fatalf("line %d: # HELP %s is not followed by its # TYPE", i+1, fam)
			}
			i++
			typ = strings.Fields(lines[i])[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("line %d: stray comment %q", i+1, line)
		}
		if fam == "" {
			t.Fatalf("line %d: sample before any # HELP: %q", i+1, line)
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("line %d: no value: %q", i+1, line)
		}
		name, labels, value := line[:sp], "", line[sp+1:]
		if b := strings.IndexByte(name, '{'); b >= 0 {
			name, labels = name[:b], strings.TrimSuffix(name[b+1:], "}")
		}
		if prev, ok := owner[name]; ok && prev != fam {
			t.Errorf("line %d: sample %s belongs to %s and to %s", i+1, name, prev, fam)
		}
		owner[name] = fam
		if typ != "histogram" {
			if name != fam {
				t.Errorf("line %d: sample %s under family %s", i+1, name, fam)
			}
			continue
		}
		n, err := strconv.ParseInt(value, 10, 64)
		switch name {
		case fam + "_bucket":
			cut := strings.LastIndex(labels, `le="`)
			if cut < 0 || err != nil {
				t.Fatalf("line %d: malformed bucket %q", i+1, line)
			}
			key := fam + "{" + strings.TrimSuffix(labels[:cut], ",") + "}"
			s := hists[key]
			if s == nil {
				s = &series{}
				hists[key] = s
			}
			if s.inf || n < s.last {
				t.Errorf("line %d: %s bucket %d after %d (closed %v)", i+1, key, n, s.last, s.inf)
			}
			s.last, s.inf = n, labels[cut:] == `le="+Inf"`
		case fam + "_count":
			key := fam + "{" + labels + "}"
			s := hists[key]
			if s == nil || !s.inf || err != nil || s.last != n {
				t.Fatalf("line %d: %s _count %s does not match its +Inf bucket %+v", i+1, key, value, s)
			}
			s.counted = true
		case fam + "_sum":
		default:
			t.Errorf("line %d: sample %s under histogram %s", i+1, name, fam)
		}
	}
	if len(hists) == 0 {
		t.Error("no histogram series in the exposition")
	}
	for key, s := range hists {
		if !s.counted {
			t.Errorf("histogram series %s has no _count", key)
		}
	}
}
