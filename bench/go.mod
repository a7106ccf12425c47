module secureblox/bench

go 1.24

require secureblox v0.0.0

replace secureblox => ../
