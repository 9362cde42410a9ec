package pgdb

import (
	"encoding/binary"
	"fmt"
	"sync"

	"memsnap/internal/sim"
	"memsnap/internal/workload"
)

// TPCC drives the sysbench TPC-C schema over a pgdb cluster
// (Figure 6). Primary-key indexes are kept in driver memory (the
// reproduction benchmarks storage-engine throughput, not index IO,
// which PostgreSQL would also largely cache for this working set).
type TPCC struct {
	c          *Cluster
	warehouses int64
	items      int64 // stock rows per warehouse

	mu  sync.Mutex
	idx map[string]map[int64]TID
	// lastOrder tracks each (warehouse, district)'s newest order id.
	lastOrder map[int64]int64
	// pendingDelivery queues undelivered orders per warehouse.
	pendingDelivery map[int64][]int64
	orderSeq        int64

	// whLocks serialize same-warehouse writers (PostgreSQL row locks,
	// coarsened).
	whLocks []sim.VLock
}

// Relation names.
const (
	relWarehouse = "warehouse"
	relDistrict  = "district"
	relCustomer  = "customer"
	relStock     = "stock"
	relOrders    = "orders"
	relOrderLine = "order_line"
	relHistory   = "history"
)

// tpccRow is the generic fixed-shape tuple all TPC-C tables use in
// this reproduction: an id plus three numeric fields.
func encodeRow(id, f1, f2, f3 int64) []byte {
	b := make([]byte, 32)
	binary.LittleEndian.PutUint64(b, uint64(id))
	binary.LittleEndian.PutUint64(b[8:], uint64(f1))
	binary.LittleEndian.PutUint64(b[16:], uint64(f2))
	binary.LittleEndian.PutUint64(b[24:], uint64(f3))
	return b
}

func decodeRow(b []byte) (id, f1, f2, f3 int64) {
	return int64(binary.LittleEndian.Uint64(b)),
		int64(binary.LittleEndian.Uint64(b[8:])),
		int64(binary.LittleEndian.Uint64(b[16:])),
		int64(binary.LittleEndian.Uint64(b[24:]))
}

// NewTPCC creates the schema and loads initial data using the given
// backend, with the standard 100000 stock items per warehouse.
func NewTPCC(c *Cluster, loader *Backend, warehouses int64) (*TPCC, error) {
	return NewTPCCWithItems(c, loader, warehouses, 100000)
}

// NewTPCCWithItems scales the stock table (tests use small values).
func NewTPCCWithItems(c *Cluster, loader *Backend, warehouses, itemsPerWarehouse int64) (*TPCC, error) {
	d := &TPCC{
		c:               c,
		warehouses:      warehouses,
		items:           itemsPerWarehouse,
		idx:             make(map[string]map[int64]TID),
		lastOrder:       make(map[int64]int64),
		pendingDelivery: make(map[int64][]int64),
		whLocks:         make([]sim.VLock, warehouses),
	}
	for _, rel := range []string{relWarehouse, relDistrict, relCustomer, relStock, relOrders, relOrderLine, relHistory} {
		if err := c.CreateRelation(loader.Clock(), rel); err != nil {
			return nil, err
		}
		d.idx[rel] = make(map[int64]TID)
	}

	loader.Begin()
	count := 0
	commitChunk := func() error {
		count++
		if count%2000 == 0 {
			loader.Commit()
			loader.Begin()
		}
		return nil
	}
	for w := int64(0); w < warehouses; w++ {
		if err := d.load(loader, relWarehouse, w, 0); err != nil {
			return nil, err
		}
		for dist := int64(0); dist < 10; dist++ {
			if err := d.load(loader, relDistrict, w*10+dist, 1); err != nil {
				return nil, err
			}
			for cust := int64(0); cust < 300; cust++ {
				id := (w*10+dist)*300 + cust
				if err := d.load(loader, relCustomer, id, 0); err != nil {
					return nil, err
				}
				commitChunk()
			}
		}
		for item := int64(0); item < d.items; item++ {
			if err := d.load(loader, relStock, w*d.items+item, 50); err != nil {
				return nil, err
			}
			commitChunk()
		}
	}
	loader.Commit()
	return d, nil
}

func (d *TPCC) load(b *Backend, rel string, id, f1 int64) error {
	tid, err := b.Insert(rel, encodeRow(id, f1, 0, 0))
	if err != nil {
		return err
	}
	d.idx[rel][id] = tid
	return nil
}

// lookup resolves a row id.
func (d *TPCC) lookup(rel string, id int64) (TID, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	tid, ok := d.idx[rel][id]
	return tid, ok
}

func (d *TPCC) setIndex(rel string, id int64, tid TID) {
	d.mu.Lock()
	d.idx[rel][id] = tid
	d.mu.Unlock()
}

// fetchRow reads a row by id.
func (d *TPCC) fetchRow(b *Backend, rel string, id int64) (TID, int64, int64, int64, error) {
	tid, ok := d.lookup(rel, id)
	if !ok {
		return TID{}, 0, 0, 0, fmt.Errorf("pgdb: %s row %d missing", rel, id)
	}
	payload, ok := b.Fetch(rel, tid)
	if !ok {
		return TID{}, 0, 0, 0, fmt.Errorf("pgdb: %s row %d invisible", rel, id)
	}
	_, f1, f2, f3 := decodeRow(payload)
	return tid, f1, f2, f3, nil
}

// updateRow writes a new version of a row and refreshes the index.
func (d *TPCC) updateRow(b *Backend, rel string, id int64, tid TID, f1, f2, f3 int64) error {
	newTID, err := b.Update(rel, tid, encodeRow(id, f1, f2, f3))
	if err != nil {
		return err
	}
	d.setIndex(rel, id, newTID)
	return nil
}

// Run executes one generated transaction on the given backend.
func (d *TPCC) Run(b *Backend, tx workload.TPCCTx) error {
	switch tx.Op {
	case workload.TPCCNewOrder:
		return d.newOrder(b, tx)
	case workload.TPCCPayment:
		return d.payment(b, tx)
	case workload.TPCCOrderStatus:
		return d.orderStatus(b, tx)
	case workload.TPCCDelivery:
		return d.delivery(b, tx)
	case workload.TPCCStockLevel:
		return d.stockLevel(b, tx)
	}
	return fmt.Errorf("pgdb: unknown op %v", tx.Op)
}

func (d *TPCC) newOrder(b *Backend, tx workload.TPCCTx) error {
	lock := &d.whLocks[tx.Warehouse]
	lock.Lock(b.Clock())
	defer lock.Unlock(b.Clock())
	b.Begin()

	distID := tx.Warehouse*10 + tx.District
	tid, nextOid, ytd, f3, err := d.fetchRow(b, relDistrict, distID)
	if err != nil {
		b.Abort()
		return err
	}
	if err := d.updateRow(b, relDistrict, distID, tid, nextOid+1, ytd, f3); err != nil {
		b.Abort()
		return err
	}

	for _, item := range tx.Items {
		stockID := tx.Warehouse*d.items + item.Item%d.items
		stid, qty, sytd, sf3, err := d.fetchRow(b, relStock, stockID)
		if err != nil {
			b.Abort()
			return err
		}
		newQty := qty - int64(item.Quantity)
		if newQty < 10 {
			newQty += 91
		}
		if err := d.updateRow(b, relStock, stockID, stid, newQty, sytd+int64(item.Quantity), sf3); err != nil {
			b.Abort()
			return err
		}
	}

	d.mu.Lock()
	d.orderSeq++
	oid := d.orderSeq
	d.mu.Unlock()
	custID := distID*300 + tx.Customer%300
	otid, err := b.Insert(relOrders, encodeRow(oid, custID, int64(len(tx.Items)), 0))
	if err != nil {
		b.Abort()
		return err
	}
	for i, item := range tx.Items {
		if _, err := b.Insert(relOrderLine, encodeRow(oid*100+int64(i), item.Item, int64(item.Quantity), 0)); err != nil {
			b.Abort()
			return err
		}
	}
	b.Commit()

	d.mu.Lock()
	d.idx[relOrders][oid] = otid
	d.lastOrder[distID] = oid
	d.pendingDelivery[tx.Warehouse] = append(d.pendingDelivery[tx.Warehouse], oid)
	d.mu.Unlock()
	return nil
}

func (d *TPCC) payment(b *Backend, tx workload.TPCCTx) error {
	lock := &d.whLocks[tx.Warehouse]
	lock.Lock(b.Clock())
	defer lock.Unlock(b.Clock())
	b.Begin()

	wtid, wytd, wf2, wf3, err := d.fetchRow(b, relWarehouse, tx.Warehouse)
	if err != nil {
		b.Abort()
		return err
	}
	if err := d.updateRow(b, relWarehouse, tx.Warehouse, wtid, wytd+tx.Amount, wf2, wf3); err != nil {
		b.Abort()
		return err
	}
	distID := tx.Warehouse*10 + tx.District
	dtid, dnext, dytd, df3, err := d.fetchRow(b, relDistrict, distID)
	if err != nil {
		b.Abort()
		return err
	}
	if err := d.updateRow(b, relDistrict, distID, dtid, dnext, dytd+tx.Amount, df3); err != nil {
		b.Abort()
		return err
	}
	custID := distID*300 + tx.Customer%300
	ctid, bal, cf2, cf3, err := d.fetchRow(b, relCustomer, custID)
	if err != nil {
		b.Abort()
		return err
	}
	if err := d.updateRow(b, relCustomer, custID, ctid, bal-tx.Amount, cf2, cf3); err != nil {
		b.Abort()
		return err
	}
	if _, err := b.Insert(relHistory, encodeRow(custID, tx.Amount, 0, 0)); err != nil {
		b.Abort()
		return err
	}
	b.Commit()
	return nil
}

func (d *TPCC) orderStatus(b *Backend, tx workload.TPCCTx) error {
	b.Begin()
	defer b.Commit()
	distID := tx.Warehouse*10 + tx.District
	custID := distID*300 + tx.Customer%300
	if _, _, _, _, err := d.fetchRow(b, relCustomer, custID); err != nil {
		return err
	}
	d.mu.Lock()
	oid := d.lastOrder[distID]
	d.mu.Unlock()
	if oid == 0 {
		return nil // no orders yet
	}
	_, _, lines, _, err := d.fetchRow(b, relOrders, oid)
	if err != nil {
		return err
	}
	_ = lines
	return nil
}

func (d *TPCC) delivery(b *Backend, tx workload.TPCCTx) error {
	d.mu.Lock()
	queue := d.pendingDelivery[tx.Warehouse]
	if len(queue) == 0 {
		d.mu.Unlock()
		return nil
	}
	oid := queue[0]
	d.pendingDelivery[tx.Warehouse] = queue[1:]
	d.mu.Unlock()

	lock := &d.whLocks[tx.Warehouse]
	lock.Lock(b.Clock())
	defer lock.Unlock(b.Clock())
	b.Begin()
	tid, custID, lines, _, err := d.fetchRow(b, relOrders, oid)
	if err != nil {
		b.Abort()
		return err
	}
	if err := d.updateRow(b, relOrders, oid, tid, custID, lines, 1 /* delivered */); err != nil {
		b.Abort()
		return err
	}
	ctid, bal, cf2, cf3, err := d.fetchRow(b, relCustomer, custID)
	if err != nil {
		b.Abort()
		return err
	}
	if err := d.updateRow(b, relCustomer, custID, ctid, bal+10, cf2, cf3); err != nil {
		b.Abort()
		return err
	}
	b.Commit()
	return nil
}

func (d *TPCC) stockLevel(b *Backend, tx workload.TPCCTx) error {
	b.Begin()
	defer b.Commit()
	base := tx.Warehouse * d.items
	low := 0
	for i := int64(0); i < 20; i++ {
		id := base + (tx.Customer*7+i)%d.items
		if _, qty, _, _, err := d.fetchRow(b, relStock, id); err == nil && qty < 15 {
			low++
		}
	}
	return nil
}
