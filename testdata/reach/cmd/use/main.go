// Command use is the plant package's user.
package main

import (
	"fmt"

	"reach/plant"
)

func main() {
	t := plant.Tally{Label: "x"}
	t.Record(true)
	fmt.Println(t.Report(), plant.Level(1), int(plant.Kind(2)))
	b, err := plant.Encode(plant.Doc{})
	fmt.Println(string(b), err)
}
