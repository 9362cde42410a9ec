// Package cluster assembles a MemSnap serving cluster and runs its
// crash choreography, so that every tool, experiment and chaos cell
// builds the same topology the same way.
//
// A cluster is a primary machine serving a shard.Service, optionally
// replicating to a follower on a second machine over a simulated link
// (internal/replica), and optionally fronted by the real-TCP data plane
// (internal/netsvc). Config composes the existing configuration types
// and adds no setting of its own; the package alone wires what every
// caller used to wire by hand: the shipper as the service's Replicator,
// StartAt on every reopen, the recorder handed to every lane, the
// Attach/Connect order, and the list of machines for the frame audit.
//
// The lifecycle verbs — CutPower, Recover, Failover, RestartFollower,
// Reopen, Close — replace components and leave the cluster's exported
// fields pointing at the live ones. What the cluster does not own:
// assertions (callers check Recovery reports, digests and models
// themselves), op sources and clients.
package cluster

import (
	"errors"
	"fmt"
	"io"
	"time"

	"memsnap/internal/core"
	"memsnap/internal/disk"
	"memsnap/internal/netsvc"
	"memsnap/internal/replica"
	"memsnap/internal/shard"
	"memsnap/internal/sim"
)

// Config declares a cluster.
type Config struct {
	// Machine sizes every machine the cluster boots or recovers.
	Machine core.Options
	// Shard configures the primary service. Its Recorder and Tenants
	// are the cluster's: the recorder also goes to the follower, the
	// shipper and the TCP front. Replicator and StartAt are set by the
	// cluster on every (re)open.
	Shard shard.Config
	// Replica, when set, adds a follower on its own machine, shipping
	// over a link built from Link. Nil: no follower.
	Replica *replica.Config
	Link    replica.LinkConfig
	// Listen, when non-empty, fronts the service with a TCP server on
	// that address, configured by Net.
	Listen string
	Net    netsvc.Config
}

// Cluster is a live cluster. Callers read the fields; the lifecycle
// verbs replace what they point at.
type Cluster struct {
	// Sys and Svc are the primary machine and its service.
	Sys *core.System
	Svc *shard.Service
	// FolSys, Fol, Link and Ship are the replication pair; nil without
	// a follower.
	FolSys *core.System
	Fol    *replica.Follower
	Link   *replica.Link
	Ship   *replica.Shipper
	// Srv is the TCP front; nil without one.
	Srv *netsvc.Server

	cfg      Config
	machines []*core.System
}

// New boots the cluster: the primary machine, then the follower's
// machine, link, follower and shipper, then the service with the
// shipper attached, then the TCP front.
func New(cfg Config) (*Cluster, error) {
	c := &Cluster{cfg: cfg}
	sys, _, err := c.machine(nil, 0)
	if err != nil {
		return nil, err
	}
	if cfg.Replica != nil {
		if c.FolSys, _, err = c.machine(nil, 0); err != nil {
			return nil, err
		}
		c.Link = replica.NewLink(cfg.Link)
		if c.Fol, err = c.newFollower(c.FolSys, 0); err != nil {
			return nil, err
		}
		c.Ship = c.newShipper(c.Fol)
	}
	if err := c.open(sys, 0); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// shardConfig is the service config for an open starting at startAt.
func (c *Cluster) shardConfig(startAt time.Duration, ship *replica.Shipper) shard.Config {
	cfg := c.cfg.Shard
	cfg.StartAt = startAt
	if ship != nil {
		cfg.Replicator = ship
	}
	return cfg
}

// open starts the primary service over sys at startAt, attaches the
// shipper to it and brings up the TCP front.
func (c *Cluster) open(sys *core.System, startAt time.Duration) error {
	svc, err := shard.New(sys, c.shardConfig(startAt, c.Ship))
	if err != nil {
		return err
	}
	c.Sys, c.Svc = sys, svc
	if c.Ship != nil {
		c.Ship.Attach(svc)
	}
	return c.serve()
}

// serve brings up the TCP front over the current service, if the
// cluster has one.
func (c *Cluster) serve() error {
	if c.cfg.Listen == "" {
		return nil
	}
	cfg := c.cfg.Net
	cfg.Recorder = c.cfg.Shard.Recorder
	srv, err := netsvc.Serve(c.cfg.Listen, c.Svc, cfg)
	if err != nil {
		return err
	}
	c.Srv = srv
	return nil
}

// stop drains the TCP front, then the service.
func (c *Cluster) stop() error {
	var errs []error
	if c.Srv != nil {
		errs = append(errs, c.Srv.Close())
	}
	return errors.Join(append(errs, c.Svc.Close())...)
}

func (c *Cluster) newFollower(sys *core.System, startAt time.Duration) (*replica.Follower, error) {
	return replica.NewFollower(sys, replica.FollowerConfig{
		Shards: c.cfg.Shard.Shards, RegionBytes: c.cfg.Shard.RegionBytes,
		StartAt: startAt, Recorder: c.cfg.Shard.Recorder,
	})
}

func (c *Cluster) newShipper(fol *replica.Follower) *replica.Shipper {
	cfg := *c.cfg.Replica
	cfg.Recorder = c.cfg.Shard.Recorder
	return replica.NewShipper(c.Link, fol, c.cfg.Shard.Shards, cfg)
}

// machine formats a fresh machine (arr nil) or recovers one over arr
// after a power cut at cutAt, and records it for the frame audit.
func (c *Cluster) machine(arr *disk.Array, cutAt time.Duration) (sys *core.System, doneAt time.Duration, err error) {
	if arr == nil {
		sys, err = core.NewSystem(c.cfg.Machine)
	} else {
		sys, doneAt, err = core.Recover(c.cfg.Machine, arr, cutAt)
	}
	if err == nil {
		c.machines = append(c.machines, sys)
	}
	return sys, doneAt, err
}

// CutPower crashes the primary. It drains the TCP front and the service
// (their queues empty cleanly, as on a real shutdown), then cuts the
// primary array's power at at, or inside the final group commit's IO
// window if that ends later, tearing the sectors in flight by rng. It
// returns the cut instant. Recover or Failover brings the cluster back.
func (c *Cluster) CutPower(at time.Duration, rng *sim.RNG) time.Duration {
	// A failed listener close changes nothing about the crash that
	// follows.
	_ = c.stop()
	for _, st := range c.Svc.Stats() {
		if t := st.LastCommitSubmit + time.Nanosecond; t > at {
			at = t
		}
	}
	c.Sys.Array().CutPower(at, rng)
	return at
}

// Recover reboots the primary machine from its array after a power cut
// at cutAt and reopens the service (and TCP front) over it, starting at
// the instant recovery finished. The shipper, if any, follows the new
// service.
func (c *Cluster) Recover(cutAt time.Duration) error {
	sys, doneAt, err := c.machine(c.Sys.Array(), cutAt)
	if err != nil {
		return fmt.Errorf("recover primary: %w", err)
	}
	if err := c.open(sys, doneAt); err != nil {
		return fmt.Errorf("reopen primary: %w", err)
	}
	return nil
}

// Failover fails over after CutPower at cutAt: the follower is promoted
// through manifest recovery and ships through a new shipper, the torn
// ex-primary reboots and rejoins as its follower, and the new shipper
// reconciles it no earlier than linkUpAt — the caller's instant by which
// the link is known to be up — discarding its divergent epochs.
func (c *Cluster) Failover(cutAt, linkUpAt time.Duration) error {
	c.Ship.Close()
	ship := c.newShipper(nil)
	svc, err := c.Fol.Promote(c.shardConfig(0, ship))
	if err != nil {
		ship.Close()
		return fmt.Errorf("promote follower: %w", err)
	}
	ship.Attach(svc)
	exArr := c.Sys.Array()
	c.Sys, c.Svc, c.Ship = c.FolSys, svc, ship
	c.FolSys, c.Fol = nil, nil
	if err := c.serve(); err != nil {
		return err
	}

	exSys, doneAt, err := c.machine(exArr, cutAt)
	if err != nil {
		return fmt.Errorf("recover ex-primary: %w", err)
	}
	fol, err := c.newFollower(exSys, doneAt)
	if err != nil {
		return fmt.Errorf("rejoin ex-primary: %w", err)
	}
	ship.Connect(fol)
	c.FolSys, c.Fol = exSys, fol
	recAt := max(svc.EndTime(), doneAt, linkUpAt)
	if err := ship.Reconcile(recAt + time.Millisecond); err != nil {
		return fmt.Errorf("reconcile ex-primary: %w", err)
	}
	return nil
}

// RestartFollower crashes the follower machine one nanosecond before its
// last applied delta became durable — tearing the tail of its most
// recent uCheckpoint, with the sectors in flight torn by rng — reboots
// it and connects a follower rebuilt over the recovered store. The next
// shipped commit sees the sequence gap and drives replay or snapshot
// catch-up.
func (c *Cluster) RestartFollower(rng *sim.RNG) error {
	cutAt := c.Fol.EndTime()
	if cutAt > 0 {
		cutAt -= time.Nanosecond
	}
	c.FolSys.Array().CutPower(cutAt, rng)
	sys, doneAt, err := c.machine(c.FolSys.Array(), cutAt)
	if err != nil {
		return fmt.Errorf("recover follower: %w", err)
	}
	fol, err := c.newFollower(sys, doneAt)
	if err != nil {
		return fmt.Errorf("rebuild follower: %w", err)
	}
	c.Ship.Connect(fol)
	c.FolSys, c.Fol = sys, fol
	return nil
}

// Reopen restarts the service on the same machine after a drain: it
// drains the TCP front and the service (a no-op for whichever the
// caller already closed) and brings both back up, every shard clock
// starting at the latest the old service reached.
func (c *Cluster) Reopen() error {
	if err := c.stop(); err != nil {
		return err
	}
	return c.open(c.Sys, c.Svc.EndTime())
}

// Machines lists every machine the cluster booted or recovered, current
// or replaced, for the frame audit.
func (c *Cluster) Machines() []*core.System { return c.machines }

// Close shuts the cluster down front to back — TCP front, service, then
// the shipper, which the service's final drain still ships through —
// and returns the errors joined. It tolerates a half-built cluster and
// repeated calls.
func (c *Cluster) Close() error {
	var errs []error
	if c.Svc != nil {
		errs = append(errs, c.stop())
	}
	if c.Ship != nil {
		errs = append(errs, c.Ship.Close())
	}
	return errors.Join(errs...)
}

// WritePrometheus writes the exposition of everything the cluster
// holds, in one fixed order: service, TCP front, shipper, follower,
// tenant sketch.
func (c *Cluster) WritePrometheus(w io.Writer) error {
	writers := []func(io.Writer) error{c.Svc.FormatPrometheus}
	if c.Srv != nil {
		writers = append(writers, c.Srv.FormatPrometheus)
	}
	if c.Ship != nil {
		writers = append(writers, c.Ship.FormatPrometheus)
	}
	if c.Fol != nil {
		writers = append(writers, c.Fol.FormatPrometheus)
	}
	if t := c.cfg.Shard.Tenants; t != nil {
		writers = append(writers, t.WriteProm)
	}
	for _, write := range writers {
		if err := write(w); err != nil {
			return err
		}
	}
	return nil
}

// Vars returns the cluster's state for /varz and flight bundles: the
// service's totals and per-shard stats, plus the TCP front's counters,
// the replication pipeline, the follower and the tenant top-K where the
// cluster has them.
func (c *Cluster) Vars() map[string]any {
	v := map[string]any{"total": c.Svc.TotalStats(), "shards": c.Svc.Stats()}
	if c.Srv != nil {
		v["net"] = c.Srv.Stats()
	}
	if c.Ship != nil {
		v["replication"] = c.Ship.Stats()
	}
	if c.Fol != nil {
		v["follower"] = c.Fol.Stats()
	}
	if t := c.cfg.Shard.Tenants; t != nil {
		v["tenants"] = t.Top()
	}
	return v
}
