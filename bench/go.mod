module lightor/bench

go 1.24

require lightor v0.0.0

replace lightor => ../
