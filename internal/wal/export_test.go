package wal

// WaitCheckpoint lets the package's external tests wait for a background
// checkpoint.
var WaitCheckpoint = (*Pager).waitCheckpoint
