module github.com/extendedtx/activityservice/bench

go 1.24

require github.com/extendedtx/activityservice v0.0.0

replace github.com/extendedtx/activityservice => ../
