// Command main is the fixture's only root.
package main

import (
	"fmt"

	"memsnap/internal/lint/testdata/src/unreachable/a"
	"memsnap/internal/lint/testdata/src/unreachable/b"
)

func main() {
	if err := a.Run(&b.Shipper{}); err != nil {
		panic(err)
	}
	fmt.Println(a.Name(1))
	f := a.Value
	fmt.Println(f())
}
