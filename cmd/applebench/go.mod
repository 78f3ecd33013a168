module github.com/apple-nfv/apple/cmd/applebench

go 1.22

require github.com/apple-nfv/apple v0.0.0

replace github.com/apple-nfv/apple => ../..
