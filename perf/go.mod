module qcsim/perf

go 1.22

require qcsim v0.0.0

replace qcsim => ../
