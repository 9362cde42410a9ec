package a

import (
	"encoding/json"
	"sync/atomic"
)

// Stats is filled in by Count and read only by a test.
type Stats struct {
	Calls int // want `field Calls is written but never read.*only tests read it`
}

// Count is called by main, which drops the result.
func Count() Stats {
	var s Stats
	s.Calls++
	return s
}

// gauge is bumped by atomic adds whose results nobody uses.
type gauge struct {
	n   atomic.Int64 // want `field n is written but never read.*nothing reads it`
	old int64        // want `field old is written but never read.*nothing reads it`
}

// ref is a refcount: the result of its Add decides the release.
type ref struct{ refs atomic.Int32 }

// Report is only marshalled: encoding/json reads its fields, and
// through Detail the exported fields below.
type Report struct {
	Name   string
	Detail Detail
}

// Detail is reached through Report.
type Detail struct{ Count int }

// key is only hashed as a map key, which reads every field.
type key struct {
	file string
	line int
}

// Config is documented API whose field no program reads yet.
type Config struct {
	//lint:allow unreachable documented facade API (Config.Legacy)
	Legacy int
}

// Fields runs every field case once.
func Fields() ([]byte, bool) {
	var g gauge
	g.n.Add(1)
	atomic.AddInt64(&g.old, 1)
	r := &ref{}
	r.refs.Store(2)
	last := r.refs.Add(-1) == 0
	out, _ := json.Marshal(Report{Name: "r", Detail: Detail{Count: 1}})
	seen := map[key]bool{{file: "f", line: 1}: true}
	_ = Config{Legacy: 1}
	return out, last || seen[key{file: "g", line: 2}]
}
