module gevo/bench

go 1.24

require gevo v0.0.0

replace gevo => ../
