// Command cmd is the reachability fixture's program. Every function of a
// main package is a root, so nothing here is reported; what it mentions
// in lib is reached.
package main

import (
	"fmt"

	"example.com/fixture/reach/lib"
)

func main() {
	w := lib.NewWidget(3)
	fmt.Println(w, lib.TotalArea([]lib.Shape{lib.Square{Side: 2}}), lib.Registry())
}
