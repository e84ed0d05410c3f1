from benchmarks.e2e.run import main

raise SystemExit(main())
