package workload

import "memsnap/internal/sim"

// TATPOp enumerates the seven TATP transaction types.
type TATPOp int

// TATP transaction types with their standard mix percentages.
const (
	TATPGetSubscriberData    TATPOp = iota // 35%, read
	TATPGetNewDestination                  // 10%, read
	TATPGetAccessData                      // 35%, read
	TATPUpdateSubscriberData               // 2%, write
	TATPUpdateLocation                     // 14%, write
	TATPInsertCallForwarding               // 2%, write
	TATPDeleteCallForwarding               // 2%, write
)

// TATPTx is one generated TATP transaction.
type TATPTx struct {
	Op         TATPOp
	Subscriber int64
	// AIType/SFType parameterize the access-data and call-forwarding
	// transactions (1..4).
	AIType int
	// Location is the new location for UPDATE_LOCATION.
	Location int64
}

// TATP generates the telecom application transaction processing mix:
// 80% reads / 20% writes across subscriber records, used by SQLite's
// authors and Figure 5 of the paper.
type TATP struct {
	// Subscribers is the database size in records (paper: 1K-1M).
	Subscribers int64
	rng         *sim.RNG
}

// NewTATP returns a generator over the given subscriber count.
func NewTATP(seed uint64, subscribers int64) *TATP {
	if subscribers <= 0 {
		subscribers = 100000
	}
	return &TATP{Subscribers: subscribers, rng: sim.NewRNG(seed)}
}

// Next returns the next transaction, following the standard mix.
func (t *TATP) Next() TATPTx {
	p := t.rng.Intn(100)
	tx := TATPTx{
		Subscriber: t.rng.Int63n(t.Subscribers),
		AIType:     1 + t.rng.Intn(4),
		Location:   t.rng.Int63n(1 << 31),
	}
	switch {
	case p < 35:
		tx.Op = TATPGetSubscriberData
	case p < 45:
		tx.Op = TATPGetNewDestination
	case p < 80:
		tx.Op = TATPGetAccessData
	case p < 82:
		tx.Op = TATPUpdateSubscriberData
	case p < 96:
		tx.Op = TATPUpdateLocation
	case p < 98:
		tx.Op = TATPInsertCallForwarding
	default:
		tx.Op = TATPDeleteCallForwarding
	}
	return tx
}
