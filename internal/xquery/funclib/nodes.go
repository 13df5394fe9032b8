package funclib

import (
	"lopsided/internal/xdm"
	"lopsided/internal/xmltree"
)

func registerNodeFuncs() {
	nodeArg := func(ctx Context, args []xdm.Sequence) (*xmltree.Node, error) {
		var it xdm.Item
		if len(args) == 0 {
			var err error
			it, err = ctx.FocusItem()
			if err != nil {
				return nil, err
			}
		} else {
			var err error
			it, err = args[0].AtMostOne()
			if err != nil {
				return nil, err
			}
			if it == nil {
				return nil, nil
			}
		}
		n, ok := xdm.IsNode(it)
		if !ok {
			return nil, xdm.Errf("XPTY0004", "expected a node, got %s", it.TypeName())
		}
		return n, nil
	}

	registerFocus("name", row(xdm.One, xdm.KStr).shell(), func(ctx Context, args []xdm.Sequence) (xdm.Sequence, error) {
		n, err := nodeArg(ctx, args)
		if err != nil {
			return nil, err
		}
		if n == nil {
			return singleton(xdm.String(""))
		}
		return singleton(xdm.String(n.Name))
	})

	registerFocus("local-name", row(xdm.One, xdm.KStr).shell(), func(ctx Context, args []xdm.Sequence) (xdm.Sequence, error) {
		n, err := nodeArg(ctx, args)
		if err != nil {
			return nil, err
		}
		if n == nil {
			return singleton(xdm.String(""))
		}
		return singleton(xdm.String(n.LocalName()))
	})

	register("node-name", 1, 1, row(xdm.Optional, xdm.KStr).shell(), func(ctx Context, args []xdm.Sequence) (xdm.Sequence, error) {
		n, err := nodeArg(ctx, args)
		if err != nil {
			return nil, err
		}
		if n == nil || n.Name == "" {
			return xdm.Empty, nil
		}
		return singleton(xdm.String(n.Name))
	})

	climbs := nodes(xdm.Optional, xdm.KNone)
	climbs.Escapes = true
	registerFocus("root", climbs, func(ctx Context, args []xdm.Sequence) (xdm.Sequence, error) {
		n, err := nodeArg(ctx, args)
		if err != nil {
			return nil, err
		}
		if n == nil {
			return xdm.Empty, nil
		}
		return xdm.Singleton(xdm.NewNode(n.Root())), nil
	})
}
