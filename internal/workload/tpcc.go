package workload

import "memsnap/internal/sim"

// TPCCOp enumerates the five TPC-C transaction types.
type TPCCOp int

// TPC-C transaction types with the standard sysbench mix.
const (
	TPCCNewOrder    TPCCOp = iota // 45%, write
	TPCCPayment                   // 43%, write
	TPCCOrderStatus               // 4%, read
	TPCCDelivery                  // 4%, write
	TPCCStockLevel                // 4%, read
)

// String implements fmt.Stringer.
func (op TPCCOp) String() string {
	switch op {
	case TPCCNewOrder:
		return "NEW_ORDER"
	case TPCCPayment:
		return "PAYMENT"
	case TPCCOrderStatus:
		return "ORDER_STATUS"
	case TPCCDelivery:
		return "DELIVERY"
	case TPCCStockLevel:
		return "STOCK_LEVEL"
	}
	return "UNKNOWN"
}

// TPCCTx is one generated TPC-C transaction.
type TPCCTx struct {
	Op        TPCCOp
	Warehouse int64
	District  int64
	Customer  int64
	// Items are the order lines for NEW_ORDER (item id, quantity).
	Items []TPCCItem
	// Amount is the payment amount for PAYMENT.
	Amount int64
}

// TPCCItem is one order line.
type TPCCItem struct {
	Item     int64
	Quantity int
}

// TPCC generates the OLTP mix of the sysbench TPC-C benchmark used in
// Figure 6 (roughly 50% of transactions write).
type TPCC struct {
	// Warehouses scales the database (paper: 150).
	Warehouses int64
	// ItemCount is the size of the item table (standard: 100000).
	ItemCount int64
	rng       *sim.RNG
}

// NewTPCC returns a generator for the given warehouse count.
func NewTPCC(seed uint64, warehouses int64) *TPCC {
	if warehouses <= 0 {
		warehouses = 150
	}
	return &TPCC{Warehouses: warehouses, ItemCount: 100000, rng: sim.NewRNG(seed)}
}

// Next returns the next transaction.
func (t *TPCC) Next() TPCCTx {
	p := t.rng.Intn(100)
	tx := TPCCTx{
		Warehouse: t.rng.Int63n(t.Warehouses),
		District:  t.rng.Int63n(10),
		Customer:  t.rng.Int63n(3000),
	}
	switch {
	case p < 45:
		tx.Op = TPCCNewOrder
		n := 5 + t.rng.Intn(11) // 5..15 order lines
		tx.Items = make([]TPCCItem, n)
		for i := range tx.Items {
			tx.Items[i] = TPCCItem{Item: t.rng.Int63n(t.ItemCount), Quantity: 1 + t.rng.Intn(10)}
		}
	case p < 88:
		tx.Op = TPCCPayment
		tx.Amount = 1 + t.rng.Int63n(5000)
	case p < 92:
		tx.Op = TPCCOrderStatus
	case p < 96:
		tx.Op = TPCCDelivery
	default:
		tx.Op = TPCCStockLevel
	}
	return tx
}
