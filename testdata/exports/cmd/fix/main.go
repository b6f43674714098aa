// Command fix is the production caller of the fixture module.
package main

import (
	"fmt"

	"fixture/internal/p"
)

type sizer interface{ Area() float64 }

func main() {
	var s sizer = p.Shape{}
	fmt.Println(s, p.Options{Set: 1})
}
