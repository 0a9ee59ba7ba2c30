package main

import (
	"os"

	"reachfix/shape"
)

func main() { os.Exit(shape.New(len(os.Args)).Area()) }
